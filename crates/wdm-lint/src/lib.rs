//! Workspace static-analysis passes and Liang–Shen construction verifier.
//!
//! Two engines, one finding model:
//!
//! * the source engine reads every `.rs` file under `crates/` once into
//!   one [`ItemIndex`] ([`graph`]: tokens, test regions, suppressions,
//!   `fn` definitions, nominal types and call sites resolved into a
//!   workspace call graph), and [`source::scan_sources`] runs every
//!   source rule over it:
//!   - [`source`] — token rules **L3–L5** (`// SAFETY:` before every
//!     `unsafe`, justified atomic `Ordering`s, docs on public items);
//!   - [`dataflow`] + [`rules_v2`] — call-graph rules **L6–L9**: no
//!     panic primitive (`unwrap`/`expect`/`panic!`, bare
//!     `unreachable!()`, unguarded arithmetic indexing) in or reachable
//!     from deny-tier library code, no allocation in or reachable from
//!     `// wdm-lint: hot-path` functions, no lossy `as` narrowing outside
//!     `// wdm-lint: cast-checked` sites, and seqlock/shard-claim
//!     protocol conformance in files marked
//!     `// wdm-lint: protocol: seqlock`;
//! * [`model`] — a static verifier for built Liang–Shen instances
//!   enforcing rules **M1–M7** (Theorem 1 node/edge-count formulas,
//!   bipartite conversion gadgets with zero-cost diagonals, traversal and
//!   terminal shape, mask cross-index integrity and involution, and the
//!   Restriction 1/2 gates).
//!
//! All report through [`Finding`] and render as human text, JSON, or
//! SARIF 2.1.0. The `wdm-lint` binary drives them; `--deny all` turns
//! any deny-severity finding into a non-zero exit, which CI gates on. A
//! committed [`baseline`] file grandfathers known findings so CI fails
//! only on new ones. `wdm-conformance`'s `SpecEngine::new` also runs
//! [`model::verify_network`] on every network it is built for, in debug
//! builds.
//!
//! Suppression is explicit and per-site: a comment
//! `// wdm-lint: allow(panic_reach) — reason` (or the
//! `wdm_lint::panic_reach` spelling) silences that rule on its own line,
//! the line it ends on, and the next line. There is no blanket off
//! switch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod dataflow;
pub mod findings;
pub mod graph;
pub mod lexer;
pub mod model;
pub mod rules_v2;
pub mod source;

pub use baseline::Baseline;
pub use findings::{render_json, render_sarif, render_text, Finding, Rule, Severity};
pub use graph::ItemIndex;
pub use model::{verify_mask_involution, verify_network, verify_view, ModelView, ViewEdge};
pub use rules_v2::scan_graph_rules;
pub use source::{collect_rs_files, scan_sources};
