//! The source engine's one front end — the workspace item/symbol index
//! and call graph.
//!
//! [`ItemIndex`] reads and lexes every file once ([`FileIndex`]: tokens,
//! test regions, allow comments, markers); the token rules in
//! [`crate::source`] scan those tokens. This module also resolves `fn`
//! definitions (with their impl type, module path, parameter and return
//! types), `struct`/`enum` declarations (field types feed
//! method-receiver resolution), and every call site (free calls,
//! `Type::path` calls, `.method(` calls, `macro!` invocations) into a
//! workspace-wide call graph. The dataflow passes in
//! [`crate::dataflow`] and the rules in [`crate::rules_v2`] run over it.
//!
//! # Resolution model
//!
//! Resolution is name-directed and deliberately over-approximate where
//! the type is unknown (soundness beats precision for a reachability
//! lint), with three precision levers that cover the workspace's idiom:
//!
//! * **path calls** `Type::f(…)` resolve against the impl type or module
//!   named `Type` (`Self::` resolves against the enclosing impl);
//! * **method calls** `recv.f(…)` resolve by the receiver's type when it
//!   is inferable — `self.field` through the enclosing impl's struct
//!   fields, locals through `let x: T` ascriptions, parameters through
//!   the signature — and fall back to "every workspace method named `f`"
//!   otherwise;
//! * calls that resolve to nothing are **external** (std or vendored
//!   shims) and treated as opaque leaves: the analysis closes over
//!   `crates/` only, which is exactly the code these lints govern.

use crate::lexer::{match_brace, next_code, prev_code, tokenize, Token, TokenKind};
use crate::source::{compute_test_regions, scan_attribute, FileScope};
use std::collections::HashMap;
use std::path::Path;

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `f(…)` — a free function call.
    Free,
    /// `Qual::f(…)` — qualified path call; the qualifier is the last
    /// path segment before the callee (`NodeId`, `Self`, a module name).
    Path(String),
    /// `recv.f(…)` — method call; the receiver hint is the trailing
    /// `self.field` / local chain when one was syntactically visible.
    Method(Receiver),
    /// `f!(…)` — macro invocation (never resolved; macros the rules care
    /// about are matched by name).
    Macro,
}

/// The syntactic receiver of a method call, as far as resolution cares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Receiver {
    /// `self.method(…)` — the enclosing impl type itself.
    SelfValue,
    /// `self.field.method(…)` — a field of the enclosing impl type.
    SelfField(String),
    /// `ident.method(…)` — a local or parameter.
    Local(String),
    /// Anything else (chained calls, temporaries, indexing …).
    Opaque,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The callee's simple name (`new`, `sort_unstable`, `panic` …).
    pub name: String,
    /// How the callee was named.
    pub kind: CallKind,
    /// Token index of the callee name in the file's token stream.
    pub token_idx: usize,
    /// 1-based source line of the callee name.
    pub line: usize,
    /// 1-based source column of the callee name.
    pub col: usize,
}

/// One indexed `fn` definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Index into [`ItemIndex::fns`] — the node id in the call graph.
    pub id: usize,
    /// Crate the definition lives in (directory under `crates/`).
    pub crate_name: String,
    /// Workspace-relative file path.
    pub file: String,
    /// Whether the file is under the crate's `src/` tree.
    pub in_src: bool,
    /// Inline `mod` path within the file.
    pub module: Vec<String>,
    /// Enclosing `impl` type (`impl Foo` / `impl Trait for Foo` → `Foo`),
    /// or the trait name for trait-default methods.
    pub impl_type: Option<String>,
    /// The function's name.
    pub name: String,
    /// 1-based line of the name token.
    pub line: usize,
    /// 1-based column of the name token.
    pub col: usize,
    /// Token range `[start, end)` of the body braces (empty for
    /// signatures without bodies).
    pub body: (usize, usize),
    /// `(pattern, type)` for each parameter, types as joined token text.
    pub params: Vec<(String, String)>,
    /// Return type as joined token text (empty for `()`).
    pub ret: String,
    /// Whether the definition sits inside `#[cfg(test)]` / `#[test]`.
    pub is_test: bool,
    /// Whether a `// wdm-lint: hot-path` marker precedes the definition.
    pub is_hot: bool,
    /// Every call site in the body, in token order.
    pub calls: Vec<CallSite>,
}

impl FnDef {
    /// `Type::name` / `module::name` / bare name — for messages.
    pub fn qualified_name(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{}::{}", t, self.name),
            None => self.name.clone(),
        }
    }
}

/// One file's tokens plus derived per-token state: every rule reads a
/// file through this, so each file is read and lexed once per run.
pub struct FileIndex {
    /// Workspace-relative path.
    pub rel: String,
    /// The crate and `src/` membership the path implies.
    pub scope: FileScope,
    /// The file's full token stream.
    pub tokens: Vec<Token>,
    /// Per-token: inside `#[cfg(test)]` / `#[test]` code.
    pub in_test: Vec<bool>,
    /// File carries a `// wdm-lint: protocol: seqlock` marker.
    pub protocol_seqlock: bool,
    /// File carries a `// wdm-lint: audited-orderings` marker: every
    /// `Ordering::` use in it is considered justified (L4).
    pub audited_orderings: bool,
    /// `(line, rule-slugs)` from `wdm-lint: allow(...)` comments: the
    /// comment's own line, the line it ends on, and the next line.
    pub allow_lines: HashMap<usize, Vec<String>>,
    /// Lines carrying a `wdm-lint: cast-checked` annotation, mapped to
    /// whether the annotation carries a non-empty reason.
    pub cast_checked: HashMap<usize, bool>,
    /// Call sites outside every fn body: `const`/`static` initializers
    /// and other item-level code.
    pub item_calls: Vec<CallSite>,
}

impl FileIndex {
    /// Whether `rule_slug` is suppressed on `line` by an allow comment.
    pub fn is_allowed(&self, rule_slug: &str, line: usize) -> bool {
        self.allow_lines
            .get(&line)
            .is_some_and(|slugs| slugs.iter().any(|s| s == rule_slug))
    }
}

/// A struct or enum declaration, indexed for receiver-type resolution.
#[derive(Debug, Clone, Default)]
pub struct TypeDef {
    /// Named-field types: field name → principal type ident.
    pub fields: HashMap<String, String>,
    /// Whether the declaration is an `enum` (matters for L8: enum → int
    /// `as` casts are repr reads, not arithmetic narrowing).
    pub is_enum: bool,
}

/// The whole-workspace index: every file, fn, and nominal type.
pub struct ItemIndex {
    /// Per-file token streams and derived state.
    pub files: Vec<FileIndex>,
    /// Every indexed fn; `FnDef::id` indexes this vec.
    pub fns: Vec<FnDef>,
    /// File of each fn: `fns[i]` lives in `files[fn_file[i]]`.
    pub fn_file: Vec<usize>,
    /// Nominal types by name.
    pub types: HashMap<String, TypeDef>,
    /// fn name → ids of every fn with that name.
    by_name: HashMap<String, Vec<usize>>,
    /// crate name → crates it can reach through `[dependencies]`
    /// (transitive, including itself). Empty when no manifests were
    /// parsed — resolution then skips the dependency filter.
    reachable: HashMap<String, std::collections::HashSet<String>>,
}

impl ItemIndex {
    /// Indexes a set of `(workspace-relative path, content)` files.
    pub fn build(files: &[(String, String)]) -> ItemIndex {
        let mut index = ItemIndex {
            files: Vec::new(),
            fns: Vec::new(),
            fn_file: Vec::new(),
            types: HashMap::new(),
            by_name: HashMap::new(),
            reachable: HashMap::new(),
        };
        for (rel, content) in files {
            index.add_file(rel, content);
        }
        for (i, f) in index.fns.iter().enumerate() {
            index.by_name.entry(f.name.clone()).or_default().push(i);
        }
        index
    }

    /// Indexes the workspace under `root`: every `.rs` file that
    /// [`collect_rs_files`](crate::source::collect_rs_files) finds.
    pub fn build_workspace(root: &Path) -> std::io::Result<ItemIndex> {
        let mut inputs = Vec::new();
        for path in crate::source::collect_rs_files(root)? {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            inputs.push((rel, std::fs::read_to_string(&path)?));
        }
        let mut index = ItemIndex::build(&inputs);
        index.reachable = crate_reachability(root)?;
        Ok(index)
    }

    /// Every fn with `name`.
    pub fn fns_named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether code in crate `from` can call into crate `to`, per the
    /// parsed manifests. Always true when no manifests were parsed (unit
    /// tests index loose files) or `from` has no manifest entry.
    fn crate_reaches(&self, from: &str, to: &str) -> bool {
        if from == to {
            return true;
        }
        match self.reachable.get(from) {
            Some(deps) => deps.contains(to),
            None => true,
        }
    }

    /// Resolves one call site in the context of `caller` to candidate
    /// callee ids. Empty = external (std/vendor) — an opaque leaf.
    pub fn resolve(&self, caller: &FnDef, call: &CallSite) -> Vec<usize> {
        let mut out = self.resolve_unfiltered(caller, call);
        // A call can only land in a crate the caller's crate depends on;
        // anything else is a same-name coincidence.
        out.retain(|&i| self.crate_reaches(&caller.crate_name, &self.fns[i].crate_name));
        out
    }

    fn resolve_unfiltered(&self, caller: &FnDef, call: &CallSite) -> Vec<usize> {
        match &call.kind {
            CallKind::Macro => Vec::new(),
            CallKind::Path(qual) => {
                let qual = if qual == "Self" {
                    match &caller.impl_type {
                        Some(t) => t.as_str(),
                        None => return Vec::new(),
                    }
                } else {
                    qual.as_str()
                };
                if is_builtin_type(qual) {
                    return Vec::new();
                }
                let named = self.fns_named(&call.name);
                // Prefer the impl-type match, then module, then crate
                // (`wdm_core::residual::f` styles the qualifier as the
                // module; `wdm_core::f` as the crate).
                let by_impl: Vec<usize> = named
                    .iter()
                    .copied()
                    .filter(|&i| self.fns[i].impl_type.as_deref() == Some(qual))
                    .collect();
                if !by_impl.is_empty() {
                    return by_impl;
                }
                let by_module: Vec<usize> = named
                    .iter()
                    .copied()
                    .filter(|&i| self.fns[i].module.iter().any(|m| m == qual))
                    .collect();
                if !by_module.is_empty() {
                    return by_module;
                }
                let crate_form = qual.replace('_', "-");
                named
                    .iter()
                    .copied()
                    .filter(|&i| {
                        self.fns[i].impl_type.is_none() && self.fns[i].crate_name == crate_form
                    })
                    .collect()
            }
            CallKind::Method(recv) => {
                let named = self.fns_named(&call.name);
                let recv_type = match recv {
                    Receiver::SelfValue => caller.impl_type.clone(),
                    Receiver::SelfField(field) => caller
                        .impl_type
                        .as_ref()
                        .and_then(|t| self.types.get(t))
                        .and_then(|t| t.fields.get(field))
                        .cloned(),
                    Receiver::Local(name) => local_type(self, caller, name),
                    Receiver::Opaque => None,
                };
                match recv_type {
                    Some(t) if is_builtin_type(&t) => Vec::new(),
                    Some(t) if self.types.contains_key(&t) || self.has_impl(&t) => named
                        .iter()
                        .copied()
                        .filter(|&i| self.fns[i].impl_type.as_deref() == Some(t.as_str()))
                        .collect(),
                    // Unknown receiver type: every workspace method with
                    // this name — unless the name collides with a common
                    // std method (`.push(` on an untyped receiver is far
                    // more likely `Vec::push` than a workspace impl; a
                    // false edge there would taint half the graph).
                    _ if is_common_std_method(&call.name) => Vec::new(),
                    _ => named
                        .iter()
                        .copied()
                        .filter(|&i| self.fns[i].impl_type.is_some())
                        .collect(),
                }
            }
            CallKind::Free => {
                let named = self.fns_named(&call.name);
                let same_file_module: Vec<usize> = named
                    .iter()
                    .copied()
                    .filter(|&i| {
                        self.fns[i].impl_type.is_none()
                            && self.fns[i].file == caller.file
                            && self.fns[i].module == caller.module
                    })
                    .collect();
                if !same_file_module.is_empty() {
                    return same_file_module;
                }
                let same_crate: Vec<usize> = named
                    .iter()
                    .copied()
                    .filter(|&i| {
                        self.fns[i].impl_type.is_none()
                            && self.fns[i].crate_name == caller.crate_name
                    })
                    .collect();
                if !same_crate.is_empty() {
                    return same_crate;
                }
                named
                    .iter()
                    .copied()
                    .filter(|&i| self.fns[i].impl_type.is_none())
                    .collect()
            }
        }
    }

    /// Type of a local or parameter `name` inside `caller`, as the
    /// principal type ident (`let x: Vec<u8>` → `Vec`). `None` when no
    /// ascription is visible.
    pub fn local_type(&self, caller: &FnDef, name: &str) -> Option<String> {
        local_type(self, caller, name)
    }

    /// The [`FileIndex`] holding `f`'s tokens.
    pub fn file_of(&self, f: &FnDef) -> &FileIndex {
        &self.files[self.fn_file[f.id]]
    }

    fn has_impl(&self, type_name: &str) -> bool {
        self.fns
            .iter()
            .any(|f| f.impl_type.as_deref() == Some(type_name))
    }

    fn add_file(&mut self, rel: &str, content: &str) {
        let scope = FileScope::from_rel_path(rel);
        let tokens = tokenize(content);
        let in_test = compute_test_regions(&tokens);
        let mut protocol_seqlock = false;
        let mut audited_orderings = false;
        let mut allow_lines: HashMap<usize, Vec<String>> = HashMap::new();
        let mut cast_checked: HashMap<usize, bool> = HashMap::new();
        for t in &tokens {
            if !t.is_comment() {
                continue;
            }
            let end_line = t.line + t.text.matches('\n').count();
            protocol_seqlock |= t.text.contains("wdm-lint: protocol: seqlock");
            audited_orderings |= t.text.contains("wdm-lint: audited-orderings");
            if let Some((_, rest)) = t.text.split_once("wdm-lint: cast-checked") {
                let has_reason = rest
                    .trim_start_matches(':')
                    .trim_start_matches('—')
                    .trim()
                    .len()
                    > 2;
                for line in [t.line, end_line, end_line + 1] {
                    cast_checked.insert(line, has_reason);
                }
            }
            if let Some(at) = t.text.find("wdm-lint: allow(") {
                let inner = &t.text[at + "wdm-lint: allow(".len()..];
                if let Some(close) = inner.find(')') {
                    let slugs: Vec<String> = inner[..close]
                        .split(',')
                        .map(|raw| raw.trim().trim_start_matches("wdm_lint::").to_string())
                        .collect();
                    for line in [t.line, end_line, end_line + 1] {
                        allow_lines.entry(line).or_default().extend(slugs.clone());
                    }
                }
            }
        }
        let file_idx = self.files.len();
        let first_fn = self.fns.len();
        let mut parser = FileParser {
            index: self,
            file_idx,
            rel: rel.to_string(),
            crate_name: scope.crate_name.clone(),
            in_src: scope.in_src,
            tokens: &tokens,
            in_test: &in_test,
        };
        parser.parse();
        // The gaps between this file's fn bodies (nested bodies lie
        // inside their parent's, and bodies arrive in token order).
        let mut item_calls = Vec::new();
        let mut pos = 0;
        for f in &self.fns[first_fn..] {
            let (start, end) = f.body;
            if end > pos {
                item_calls.extend(collect_calls(&tokens, pos, start.max(pos)));
                pos = end;
            }
        }
        item_calls.extend(collect_calls(&tokens, pos, tokens.len()));
        self.files.push(FileIndex {
            rel: rel.to_string(),
            scope,
            tokens,
            in_test,
            protocol_seqlock,
            audited_orderings,
            allow_lines,
            cast_checked,
            item_calls,
        });
    }
}

/// Principal type ident of a joined type string: strips `&`/`mut`, takes
/// the final path segment before any generic bracket (`&mut Vec<u8>` →
/// `Vec`, `wdm_core::Wavelength` → `Wavelength`).
pub fn principal_type(ty: &str) -> Option<String> {
    let core = ty
        .trim_start_matches(['&', ' '])
        .trim_start_matches("mut ")
        .trim();
    let before_generic = core.split(['<', '(', '[']).next().unwrap_or(core).trim();
    let last = before_generic.rsplit("::").next().unwrap_or(before_generic);
    let last = last.trim();
    if last.is_empty()
        || !last
            .chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
    {
        None
    } else {
        Some(last.to_string())
    }
}

/// Parses every `crates/*/Cargo.toml` under `root` and returns, per
/// crate, the transitive set of workspace crates it depends on
/// (including itself). Only `[dependencies]` and `[dev-dependencies]`
/// sections are read; dependency names are the text before the first
/// `.`, `=`, or space on the line.
fn crate_reachability(
    root: &Path,
) -> std::io::Result<HashMap<String, std::collections::HashSet<String>>> {
    use std::collections::HashSet;
    let crates_dir = root.join("crates");
    let mut direct: HashMap<String, HashSet<String>> = HashMap::new();
    let Ok(entries) = std::fs::read_dir(&crates_dir) else {
        return Ok(HashMap::new());
    };
    for entry in entries.filter_map(|e| e.ok()) {
        let manifest = entry.path().join("Cargo.toml");
        let Ok(text) = std::fs::read_to_string(&manifest) else {
            continue;
        };
        let name = entry.file_name().to_string_lossy().into_owned();
        let mut deps = HashSet::new();
        let mut in_deps = false;
        for line in text.lines() {
            let line = line.trim();
            if line.starts_with('[') {
                in_deps = line == "[dependencies]" || line == "[dev-dependencies]";
                continue;
            }
            if !in_deps || line.is_empty() || line.starts_with('#') {
                continue;
            }
            let dep: String = line
                .chars()
                .take_while(|&c| c != '.' && c != '=' && c != ' ')
                .collect();
            if !dep.is_empty() {
                deps.insert(dep);
            }
        }
        direct.insert(name, deps);
    }
    // Transitive closure; keep only names that are workspace crates.
    let workspace: HashSet<String> = direct.keys().cloned().collect();
    let mut reachable: HashMap<String, HashSet<String>> = HashMap::new();
    for name in &workspace {
        let mut seen: HashSet<String> = HashSet::new();
        seen.insert(name.clone());
        let mut stack = vec![name.clone()];
        while let Some(cur) = stack.pop() {
            if let Some(deps) = direct.get(&cur) {
                for d in deps {
                    if workspace.contains(d) && seen.insert(d.clone()) {
                        stack.push(d.clone());
                    }
                }
            }
        }
        reachable.insert(name.clone(), seen);
    }
    Ok(reachable)
}

/// Type of a local/param `name` inside `caller`: parameter types first,
/// then `let name: T` ascriptions in the body.
fn local_type(index: &ItemIndex, caller: &FnDef, name: &str) -> Option<String> {
    for (pat, ty) in &caller.params {
        if pat == name || pat.ends_with(&format!(" {name}")) {
            return principal_type(ty);
        }
    }
    let toks = &index.file_of(caller).tokens;
    let (start, end) = caller.body;
    let body = toks.get(start..end.min(toks.len())).unwrap_or_default();
    for (i, t) in body.iter().enumerate() {
        if !t.is_ident("let") {
            continue;
        }
        // The tokens after `let [mut]`.
        let rest = match body.get(i + 1..).unwrap_or_default() {
            [m, rest @ ..] if m.is_ident("mut") => rest,
            rest => rest,
        };
        let [binding, after @ ..] = rest else {
            continue;
        };
        if !(binding.kind == TokenKind::Ident && binding.text == name) {
            continue;
        }
        match after {
            // `let [mut] name: T` — join type tokens until `=` or `;`.
            [colon, ty @ ..] if colon.is_punct(':') => {
                let ty: Vec<&str> = ty
                    .iter()
                    .take_while(|t| !t.is_punct('=') && !t.is_punct(';'))
                    .map(|t| t.text.as_str())
                    .collect();
                return principal_type(&ty.join(" "));
            }
            // `let [mut] name = Type::ctor(…)` / `= Type { … }` — infer
            // the type from the constructor path head.
            [eq, head, a, b, ..]
                if eq.is_punct('=')
                    && head.kind == TokenKind::Ident
                    && head.text.chars().next().is_some_and(char::is_uppercase)
                    && ((a.is_punct(':') && b.is_punct(':')) || a.is_punct('{')) =>
            {
                return Some(head.text.clone());
            }
            _ => {}
        }
    }
    None
}

/// Method names that collide with ubiquitous std methods; an
/// unknown-receiver call to one of these is treated as external rather
/// than unioned over workspace impls of the same name.
fn is_common_std_method(name: &str) -> bool {
    matches!(
        name,
        "push" | "pop"
            | "insert"
            | "remove"
            | "get"
            | "get_mut"
            | "len"
            | "is_empty"
            | "clear"
            | "contains"
            | "contains_key"
            | "next"
            | "iter"
            | "iter_mut"
            | "clone"
            | "new"
            | "extend"
            | "drain"
            | "take"
            | "swap"
            | "load"
            | "store"
            | "write"
            | "read"
            | "flush"
            | "send"
            | "recv"
            | "lock"
            | "join"
            | "min"
            | "max"
            | "abs"
            | "last"
            | "first"
            | "find"
            | "map"
            | "filter"
            | "fold"
            | "count"
            | "sum"
            // `.expect(` / `.unwrap(` on an untyped receiver is near
            // certainly `Option`/`Result` — and both are already panic
            // sinks by name, so a workspace union would only fabricate
            // chains through same-named helper methods.
            | "expect"
            | "unwrap"
    )
}

/// Primitive and std types that terminate resolution.
fn is_builtin_type(name: &str) -> bool {
    matches!(
        name,
        "u8" | "u16"
            | "u32"
            | "u64"
            | "u128"
            | "usize"
            | "i8"
            | "i16"
            | "i32"
            | "i64"
            | "i128"
            | "isize"
            | "f32"
            | "f64"
            | "bool"
            | "char"
            | "str"
            | "String"
            | "Vec"
            | "VecDeque"
            | "Box"
            | "Arc"
            | "Rc"
            | "Mutex"
            | "RwLock"
            | "MutexGuard"
            | "Option"
            | "Result"
            | "HashMap"
            | "HashSet"
            | "BTreeMap"
            | "BTreeSet"
            | "BinaryHeap"
            | "Instant"
            | "Duration"
            | "Ordering"
            | "AtomicU64"
            | "AtomicUsize"
            | "AtomicU32"
            | "AtomicBool"
            | "OnceLock"
            | "PathBuf"
            | "Path"
            | "Iterator"
            | "ExitCode"
            | "TcpStream"
            | "TcpListener"
            | "UnixStream"
            | "UnixListener"
    )
}

/// Scope kinds tracked while walking a file's brace structure.
enum ScopeKind {
    Mod(String),
    Impl(Option<String>),
    Trait(String),
    Fn,
}

struct Scope {
    kind: ScopeKind,
    depth: usize,
}

struct FileParser<'a> {
    index: &'a mut ItemIndex,
    file_idx: usize,
    rel: String,
    crate_name: String,
    in_src: bool,
    tokens: &'a [Token],
    in_test: &'a [bool],
}

impl<'a> FileParser<'a> {
    fn parse(&mut self) {
        let toks = self.tokens;
        let mut scopes: Vec<Scope> = Vec::new();
        let mut depth = 0usize;
        let mut i = 0usize;
        let mut pending_hot = false;
        while i < toks.len() {
            let t = &toks[i];
            match t.kind {
                TokenKind::LineComment => {
                    if !t.is_doc_comment()
                        && t.text
                            .trim_start_matches('/')
                            .trim_start()
                            .starts_with("wdm-lint: hot-path")
                    {
                        pending_hot = true;
                    }
                    i += 1;
                }
                TokenKind::Punct if t.text == "{" => {
                    depth += 1;
                    i += 1;
                }
                TokenKind::Punct if t.text == "}" => {
                    depth = depth.saturating_sub(1);
                    while scopes.last().is_some_and(|s| s.depth > depth) {
                        scopes.pop();
                    }
                    i += 1;
                }
                TokenKind::Punct if t.text == "#" => {
                    // Skip attributes wholesale so `#[derive(...)]`
                    // contents never look like calls or items.
                    let open = if toks.get(i + 1).is_some_and(|t| t.is_punct('!')) {
                        i + 2
                    } else {
                        i + 1
                    };
                    if toks.get(open).is_some_and(|t| t.is_punct('[')) {
                        let (end, _) = scan_attribute(toks, open);
                        i = end;
                    } else {
                        i += 1;
                    }
                }
                TokenKind::Ident if t.text == "mod" => {
                    if let Some(name_tok) = toks.get(i + 1) {
                        if name_tok.kind == TokenKind::Ident {
                            // `mod name;` declarations have no brace scope.
                            if next_code(toks, i + 1).is_some_and(|n| toks[n].is_punct('{')) {
                                scopes.push(Scope {
                                    kind: ScopeKind::Mod(name_tok.text.clone()),
                                    depth: depth + 1,
                                });
                            }
                        }
                    }
                    i += 2;
                }
                TokenKind::Ident if t.text == "impl" => {
                    let (ty, body_open) = parse_impl_header(toks, i);
                    scopes.push(Scope {
                        kind: ScopeKind::Impl(ty),
                        depth: depth + 1,
                    });
                    i = body_open;
                }
                TokenKind::Ident if t.text == "trait" => {
                    let name = toks
                        .get(i + 1)
                        .filter(|t| t.kind == TokenKind::Ident)
                        .map(|t| t.text.clone())
                        .unwrap_or_default();
                    // Advance to the trait body's `{` (skipping bounds).
                    let mut j = i + 1;
                    let mut angle = 0usize;
                    while j < toks.len() {
                        match toks[j].text.as_str() {
                            "<" => angle += 1,
                            ">" if angle > 0
                                && !prev_is(toks, j, "-")
                                && !prev_is(toks, j, "=") =>
                            {
                                angle -= 1
                            }
                            "{" if angle == 0 => break,
                            ";" if angle == 0 => break,
                            _ => {}
                        }
                        j += 1;
                    }
                    scopes.push(Scope {
                        kind: ScopeKind::Trait(name),
                        depth: depth + 1,
                    });
                    i = j;
                }
                TokenKind::Ident if t.text == "struct" || t.text == "enum" => {
                    i = self.parse_type_decl(i, t.text == "enum");
                }
                TokenKind::Ident if t.text == "fn" => {
                    let module: Vec<String> = scopes
                        .iter()
                        .filter_map(|s| match &s.kind {
                            ScopeKind::Mod(m) => Some(m.clone()),
                            _ => None,
                        })
                        .collect();
                    let impl_type = scopes.iter().rev().find_map(|s| match &s.kind {
                        ScopeKind::Impl(t) => t.clone(),
                        ScopeKind::Trait(t) => Some(t.clone()),
                        _ => None,
                    });
                    let next = self.parse_fn(i, module, impl_type, pending_hot);
                    pending_hot = false;
                    scopes.push(Scope {
                        kind: ScopeKind::Fn,
                        depth: depth + 1,
                    });
                    i = next;
                }
                _ => i += 1,
            }
        }
    }

    /// Indexes `struct Name { field: Type, … }` / `enum Name { … }`
    /// field types; returns the index to resume scanning from (the body
    /// `{` so the brace walker stays balanced, or past the `;`).
    fn parse_type_decl(&mut self, kw_idx: usize, is_enum: bool) -> usize {
        let toks = self.tokens;
        let Some(name_tok) = toks.get(kw_idx + 1).filter(|t| t.kind == TokenKind::Ident) else {
            return kw_idx + 1;
        };
        let name = name_tok.text.clone();
        let mut fields = HashMap::new();
        // Find `{` or `;` or `(` after the name (skipping generics).
        let mut j = kw_idx + 2;
        let mut angle = 0usize;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "<" => angle += 1,
                ">" if angle > 0 && !prev_is(toks, j, "-") && !prev_is(toks, j, "=") => angle -= 1,
                "{" | ";" | "(" if angle == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if !is_enum && j < toks.len() && toks[j].is_punct('{') {
            // Named-field struct: scan `ident : Type ,` at depth 1.
            let mut k = j + 1;
            let mut bdepth = 1usize;
            while k < toks.len() && bdepth > 0 {
                match toks[k].text.as_str() {
                    "{" => bdepth += 1,
                    "}" => bdepth -= 1,
                    _ => {}
                }
                if bdepth == 1
                    && toks[k].kind == TokenKind::Ident
                    && toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
                    && !toks.get(k + 2).is_some_and(|t| t.is_punct(':'))
                {
                    let mut ty = String::new();
                    let mut m = k + 2;
                    let mut tangle = 0usize;
                    while m < toks.len() {
                        match toks[m].text.as_str() {
                            "<" => tangle += 1,
                            ">" if tangle > 0 => tangle -= 1,
                            "," | "}" if tangle == 0 => break,
                            _ => {}
                        }
                        if !toks[m].is_comment() {
                            if !ty.is_empty() {
                                ty.push(' ');
                            }
                            ty.push_str(&toks[m].text);
                        }
                        m += 1;
                    }
                    if let Some(p) = principal_type(&ty) {
                        fields.insert(toks[k].text.clone(), p);
                    }
                    k = m;
                    continue;
                }
                k += 1;
            }
        }
        let entry = self.index.types.entry(name).or_default();
        entry.is_enum = entry.is_enum || is_enum;
        entry.fields.extend(fields);
        j
    }

    /// Parses one `fn` at `fn_idx`, records the def, and returns the
    /// token index of the body `{` (or just past `;`) so the caller's
    /// brace walker stays balanced.
    fn parse_fn(
        &mut self,
        fn_idx: usize,
        module: Vec<String>,
        impl_type: Option<String>,
        is_hot: bool,
    ) -> usize {
        let toks = self.tokens;
        let Some(name_tok) = toks.get(fn_idx + 1).filter(|t| t.kind == TokenKind::Ident) else {
            return fn_idx + 1;
        };
        let name = name_tok.text.clone();
        let (line, col) = (name_tok.line, name_tok.col);
        // Skip generics to the parameter `(`.
        let mut j = fn_idx + 2;
        let mut angle = 0usize;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "<" => angle += 1,
                ">" if angle > 0 && !prev_is(toks, j, "-") && !prev_is(toks, j, "=") => angle -= 1,
                "(" if angle == 0 => break,
                "{" | ";" if angle == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let mut params = Vec::new();
        if j < toks.len() && toks[j].is_punct('(') {
            let (parsed, end) = parse_params(toks, j);
            params = parsed;
            j = end;
        }
        // Return type: `-> Type` until `{`, `;`, or `where`.
        let mut ret = String::new();
        let mut saw_arrow = false;
        let mut angle = 0usize;
        while j < toks.len() {
            let txt = toks[j].text.as_str();
            match txt {
                "<" => angle += 1,
                ">" if angle > 0 && !prev_is(toks, j, "-") && !prev_is(toks, j, "=") => angle -= 1,
                "{" | ";" if angle == 0 => break,
                "where" if angle == 0 => {
                    saw_arrow = false;
                }
                _ => {}
            }
            if txt == ">" && prev_is(toks, j, "-") {
                saw_arrow = true;
            } else if saw_arrow && !toks[j].is_comment() && txt != "-" {
                if !ret.is_empty() {
                    ret.push(' ');
                }
                ret.push_str(txt);
            }
            j += 1;
        }
        // Resume at the `{` itself so the caller's brace walker stays
        // balanced (it will push the depth for the body).
        let (body, resume) = if j < toks.len() && toks[j].is_punct('{') {
            let end = match_brace(toks, j);
            ((j + 1, end), j)
        } else {
            ((0, 0), j + 1)
        };
        let id = self.index.fns.len();
        let is_test = self.in_test.get(fn_idx).copied().unwrap_or(false);
        let calls = collect_calls(toks, body.0, body.1);
        self.index.fns.push(FnDef {
            id,
            crate_name: self.crate_name.clone(),
            file: self.rel.clone(),
            in_src: self.in_src,
            module,
            impl_type,
            name,
            line,
            col,
            body,
            params,
            ret,
            is_test,
            is_hot,
            calls,
        });
        self.index.fn_file.push(self.file_idx);
        resume
    }
}

/// Parses an `impl` header starting at the `impl` keyword: returns the
/// impl type's last path segment (`impl fmt::Display for Foo` → `Foo`,
/// `impl<T> Bar<T>` → `Bar`) and the index of the body `{`. Idents
/// inside generic brackets and after `where` do not count.
fn parse_impl_header(toks: &[Token], impl_idx: usize) -> (Option<String>, usize) {
    let mut j = impl_idx + 1;
    let mut angle = 0usize;
    let mut result: Option<String> = None;
    let mut collecting = true;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_comment() {
            j += 1;
            continue;
        }
        match t.text.as_str() {
            "<" => angle += 1,
            ">" if angle > 0 && !prev_is(toks, j, "-") && !prev_is(toks, j, "=") => angle -= 1,
            "{" | ";" if angle == 0 => break,
            "where" if angle == 0 => collecting = false,
            _ => {
                if collecting
                    && angle == 0
                    && t.kind == TokenKind::Ident
                    && !matches!(t.text.as_str(), "for" | "dyn" | "mut" | "const" | "unsafe")
                {
                    // Keep overwriting: the last top-level ident before
                    // the body is the impl type's final segment, both
                    // for `impl Foo` and `impl Trait for path::Foo`.
                    result = Some(t.text.clone());
                }
            }
        }
        j += 1;
    }
    (result, j)
}

/// Whether the previous token (comments skipped) has text `want`.
fn prev_is(toks: &[Token], i: usize, want: &str) -> bool {
    prev_code(toks, i).is_some_and(|p| toks[p].text == want)
}

/// Parses a parameter list starting at its `(`; returns the params and
/// the index just past the closing `)`.
fn parse_params(toks: &[Token], open: usize) -> (Vec<(String, String)>, usize) {
    let mut params = Vec::new();
    let mut depth = 0usize;
    let mut angle = 0usize;
    let mut i = open;
    let mut current: Vec<&Token> = Vec::new();
    loop {
        if i >= toks.len() {
            break;
        }
        let t = &toks[i];
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    if !current.is_empty() {
                        push_param(&mut params, &current);
                    }
                    i += 1;
                    break;
                }
            }
            "<" => angle += 1,
            ">" if angle > 0 && !prev_is(toks, i, "-") && !prev_is(toks, i, "=") => angle -= 1,
            "," if depth == 1 && angle == 0 => {
                push_param(&mut params, &current);
                current.clear();
                i += 1;
                continue;
            }
            _ => {}
        }
        if depth >= 1 && !(depth == 1 && (t.text == "(" || t.text == ")")) && !t.is_comment() {
            current.push(t);
        }
        i += 1;
    }
    (params, i)
}

fn push_param(params: &mut Vec<(String, String)>, toks: &[&Token]) {
    // Split at the first top-level `:` (not `::`).
    let mut colon = None;
    let mut k = 0;
    while k < toks.len() {
        if toks[k].is_punct(':') {
            if k + 1 < toks.len() && toks[k + 1].is_punct(':') {
                k += 2;
                continue;
            }
            colon = Some(k);
            break;
        }
        k += 1;
    }
    match colon {
        Some(c) => {
            let pat: Vec<&str> = toks[..c].iter().map(|t| t.text.as_str()).collect();
            let ty: Vec<&str> = toks[c + 1..].iter().map(|t| t.text.as_str()).collect();
            params.push((pat.join(" "), ty.join(" ")));
        }
        None => {
            // `self` / `&mut self` receivers.
            let pat: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
            params.push((pat.join(" "), String::new()));
        }
    }
}

/// Rust keywords that look like calls when followed by `(`.
fn is_keyword(name: &str) -> bool {
    matches!(
        name,
        "if" | "while"
            | "match"
            | "for"
            | "return"
            | "loop"
            | "fn"
            | "let"
            | "else"
            | "in"
            | "move"
            | "ref"
            | "mut"
            | "pub"
            | "crate"
            | "super"
            | "self"
            | "Self"
            | "as"
            | "where"
            | "impl"
            | "dyn"
            | "box"
            | "unsafe"
            | "use"
            | "struct"
            | "enum"
            | "trait"
            | "type"
            | "const"
            | "static"
            | "break"
            | "continue"
    )
}

/// Extracts every call site in the token range `[start, end)`.
/// When the tokens from `at` spell a turbofish `::<…>` (before `end`),
/// the index of the code token after its closing `>`.
fn turbofish_end(toks: &[Token], at: usize, end: usize) -> Option<usize> {
    let next = |i: usize| next_code(toks, i).filter(|&j| j < end);
    let colon = next(at).filter(|_| toks[at].is_punct(':'))?;
    let mut i = next(colon).filter(|_| toks[colon].is_punct(':'))?;
    if !toks[i].is_punct('<') {
        return None;
    }
    let mut depth = 0usize;
    loop {
        if toks[i].is_punct('<') {
            depth += 1;
        } else if toks[i].is_punct('>')
            && !prev_code(toks, i).is_some_and(|p| toks[p].is_punct('-'))
        {
            // `->` inside `Fn(…) -> T` closes nothing.
            depth -= 1;
            if depth == 0 {
                return next(i);
            }
        }
        i = next(i)?;
    }
}

fn collect_calls(toks: &[Token], start: usize, end: usize) -> Vec<CallSite> {
    let mut calls = Vec::new();
    let end = end.min(toks.len());
    let mut i = start;
    while i < end {
        let t = &toks[i];
        if t.kind != TokenKind::Ident || is_keyword(&t.text) {
            i += 1;
            continue;
        }
        let next = next_code(toks, i).filter(|&j| j < end);
        let Some(n) = next else {
            i += 1;
            continue;
        };
        // Macro invocation `name!(` / `name![` / `name!{`.
        if toks[n].is_punct('!') {
            if let Some(n2) = next_code(toks, n).filter(|&j| j < end) {
                if toks[n2].is_punct('(') || toks[n2].is_punct('[') || toks[n2].is_punct('{') {
                    calls.push(CallSite {
                        name: t.text.clone(),
                        kind: CallKind::Macro,
                        token_idx: i,
                        line: t.line,
                        col: t.col,
                    });
                }
            }
            i += 1;
            continue;
        }
        // `name::<T>(` — a turbofish between the name and its arguments.
        let n = turbofish_end(toks, n, end).unwrap_or(n);
        if !toks[n].is_punct('(') {
            i += 1;
            continue;
        }
        // A call. Classify by what precedes the name.
        let prev = prev_code(toks, i);
        let kind = match prev {
            Some(p) if toks[p].is_punct('.') => CallKind::Method(receiver_of(toks, p)),
            Some(p)
                if toks[p].is_punct(':')
                    && p > 0
                    && prev_code(toks, p).is_some_and(|pp| toks[pp].is_punct(':')) =>
            {
                // `Qual::name(` — the qualifier is the ident before `::`.
                let pp = prev_code(toks, p).unwrap_or(0);
                match prev_code(toks, pp) {
                    Some(q) if toks[q].kind == TokenKind::Ident => {
                        CallKind::Path(toks[q].text.clone())
                    }
                    // `<T as Trait>::name(` and friends — opaque.
                    _ => CallKind::Path(String::new()),
                }
            }
            Some(p) if toks[p].is_ident("fn") => {
                // A definition, not a call.
                i += 1;
                continue;
            }
            _ => CallKind::Free,
        };
        calls.push(CallSite {
            name: t.text.clone(),
            kind,
            token_idx: i,
            line: t.line,
            col: t.col,
        });
        i += 1;
    }
    calls
}

/// Receiver hint for a method call whose `.` sits at `dot_idx`.
fn receiver_of(toks: &[Token], dot_idx: usize) -> Receiver {
    // Walk back over `ident . ident . …` chains only; anything else
    // (a `)`, `]`, literal…) is opaque.
    let Some(r1) = prev_code(toks, dot_idx) else {
        return Receiver::Opaque;
    };
    if toks[r1].kind != TokenKind::Ident {
        return Receiver::Opaque;
    }
    let first = &toks[r1].text;
    let Some(d2) = prev_code(toks, r1) else {
        return if first == "self" {
            Receiver::SelfValue
        } else {
            Receiver::Local(first.clone())
        };
    };
    if toks[d2].is_punct('.') {
        if let Some(r2) = prev_code(toks, d2) {
            if toks[r2].is_ident("self") {
                // Make sure `self` isn't itself `x.self` (impossible in
                // Rust, so this is the chain root).
                return Receiver::SelfField(first.clone());
            }
        }
        // Longer chain (`a.b.c.m()`): opaque.
        return Receiver::Opaque;
    }
    if first == "self" {
        Receiver::SelfValue
    } else {
        Receiver::Local(first.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(src: &str) -> ItemIndex {
        ItemIndex::build(&[("crates/wdm-core/src/x.rs".to_string(), src.to_string())])
    }

    #[test]
    fn indexes_free_and_impl_fns() {
        let idx = index(
            "fn free_one() {}\n\
             struct Foo { count: u32, heap: FibonacciHeap }\n\
             impl Foo {\n    fn method_one(&self, x: u32) -> bool { true }\n}\n",
        );
        assert_eq!(idx.fns.len(), 2);
        let free = &idx.fns[0];
        assert_eq!(free.name, "free_one");
        assert_eq!(free.impl_type, None);
        let m = &idx.fns[1];
        assert_eq!(m.name, "method_one");
        assert_eq!(m.impl_type.as_deref(), Some("Foo"));
        assert_eq!(m.ret, "bool");
        assert_eq!(m.params.len(), 2);
        assert_eq!(m.params[1], ("x".to_string(), "u32".to_string()));
        assert_eq!(idx.types["Foo"].fields["heap"], "FibonacciHeap");
    }

    #[test]
    fn collects_and_classifies_calls() {
        let idx = index(
            "impl Foo {\n\
             fn caller(&self) {\n\
                 helper();\n\
                 NodeId::new(3);\n\
                 self.step();\n\
                 self.heap.push(1);\n\
                 panic!(\"x\");\n\
             }\n}\n",
        );
        let calls = &idx.fns[0].calls;
        assert_eq!(calls.len(), 5, "{calls:?}");
        assert_eq!(calls[0].kind, CallKind::Free);
        assert_eq!(calls[1].kind, CallKind::Path("NodeId".into()));
        assert_eq!(calls[2].kind, CallKind::Method(Receiver::SelfValue));
        assert_eq!(
            calls[3].kind,
            CallKind::Method(Receiver::SelfField("heap".into()))
        );
        assert_eq!(calls[4].kind, CallKind::Macro);
    }

    #[test]
    fn resolves_path_and_method_calls() {
        let idx = ItemIndex::build(&[(
            "crates/wdm-core/src/x.rs".to_string(),
            "struct A { b: B }\n\
             struct B;\n\
             impl B { fn go(&self) {} }\n\
             impl A { fn run(&self) { self.b.go(); B::go2(); } }\n\
             impl B { fn go2() {} }\n"
                .to_string(),
        )]);
        let run = idx.fns.iter().find(|f| f.name == "run").expect("run");
        let go_call = run.calls.iter().find(|c| c.name == "go").expect("go call");
        let resolved = idx.resolve(run, go_call);
        assert_eq!(resolved.len(), 1);
        assert_eq!(idx.fns[resolved[0]].qualified_name(), "B::go");
        let go2_call = run.calls.iter().find(|c| c.name == "go2").expect("go2");
        let resolved2 = idx.resolve(run, go2_call);
        assert_eq!(resolved2.len(), 1);
        assert_eq!(idx.fns[resolved2[0]].qualified_name(), "B::go2");
    }

    #[test]
    fn test_fns_are_marked_and_hot_markers_stick() {
        let idx = index(
            "// wdm-lint: hot-path\n\
             fn hot_one(&mut self) {}\n\
             #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n",
        );
        assert!(idx.fns[0].is_hot);
        assert!(!idx.fns[0].is_test);
        let t = idx.fns.iter().find(|f| f.name == "t").expect("t");
        assert!(t.is_test);
    }

    #[test]
    fn generic_fns_and_where_clauses_parse() {
        let idx = index(
            "fn generic<T: Ord, I: IntoIterator<Item = T>>(items: I) -> Vec<T>\n\
             where T: Clone {\n    items.into_iter().collect()\n}\n",
        );
        assert_eq!(idx.fns.len(), 1);
        assert_eq!(idx.fns[0].name, "generic");
        assert!(idx.fns[0].ret.starts_with("Vec"));
    }

    #[test]
    fn principal_type_extraction() {
        assert_eq!(principal_type("&mut Vec<u8>").as_deref(), Some("Vec"));
        assert_eq!(
            principal_type("wdm_core :: Wavelength").as_deref(),
            Some("Wavelength")
        );
        assert_eq!(principal_type("u32").as_deref(), Some("u32"));
        assert_eq!(principal_type("").as_deref(), None);
    }
}
