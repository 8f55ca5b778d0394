//! A plain-text instance format for WDM networks.
//!
//! Lets instances be saved, versioned, and shared between the examples,
//! the experiment harness, and external tools without pulling in a JSON
//! dependency. The format is line-based and human-editable:
//!
//! ```text
//! wdm v1
//! n 3
//! k 2
//! link 0 1 0:10,1:12
//! link 1 2 1:20
//! conv 1 uniform 5
//! conv 2 banded 2 1 3
//! conv 0 matrix 0>1:4,1>0:7
//! ```
//!
//! * `link <tail> <head> <λ:cost>[,<λ:cost>…]` — one line per directed
//!   link, in link-id order; an empty availability set is written as `-`.
//! * `conv <node> forbidden|free|uniform <c>|banded <radius> <base>
//!   <slope>|matrix <from>>\<to>:<cost>[,…]` — unlisted nodes default to
//!   `forbidden`; unlisted matrix pairs are forbidden.
//!
//! # Examples
//!
//! ```
//! use wdm_core::{textfmt, WdmNetwork};
//! use wdm_graph::DiGraph;
//!
//! let g = DiGraph::from_links(2, [(0, 1)]);
//! let net = WdmNetwork::builder(g, 2).link_wavelengths(0, [(0, 5)]).build()?;
//! let text = textfmt::to_text(&net);
//! let back = textfmt::from_text(&text)?;
//! assert_eq!(net, back);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::{ConversionMatrix, ConversionPolicy, Cost, Wavelength, WdmNetwork};
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
use wdm_graph::DiGraph;

/// Errors from parsing the text format.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseError {
    /// Missing or wrong `wdm v1` header.
    BadHeader,
    /// A malformed line, with its 1-based line number.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// The parsed instance failed network validation.
    Invalid(crate::WdmError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::BadHeader => write!(f, "missing `wdm v1` header"),
            ParseError::Malformed { line, reason } => {
                write!(f, "line {line}: {reason}")
            }
            ParseError::Invalid(e) => write!(f, "invalid instance: {e}"),
        }
    }
}

impl Error for ParseError {}

impl From<crate::WdmError> for ParseError {
    fn from(e: crate::WdmError) -> Self {
        ParseError::Invalid(e)
    }
}

/// The finite value of a cost the model guarantees finite (validated link
/// costs; conversion parameters, whose infinite cases serialize through
/// other branches).
fn finite(c: Cost) -> u64 {
    match c.value() {
        Some(v) => v,
        None => unreachable!("textfmt only serializes finite costs"),
    }
}

/// Serializes a network to the text format.
pub fn to_text(network: &WdmNetwork) -> String {
    let mut out = String::new();
    out.push_str("wdm v1\n");
    let _ = writeln!(out, "n {}", network.node_count());
    let _ = writeln!(out, "k {}", network.k());
    for (e, l) in network.graph().links() {
        let _ = write!(out, "link {} {} ", l.tail().index(), l.head().index());
        let lw = network.wavelengths_on(e);
        if lw.is_empty() {
            out.push('-');
        } else {
            let entries: Vec<String> = lw
                .iter()
                .map(|(w, c)| format!("{}:{}", w.index(), finite(c)))
                .collect();
            out.push_str(&entries.join(","));
        }
        out.push('\n');
    }
    for v in network.graph().nodes() {
        match network.conversion_at(v) {
            ConversionPolicy::Forbidden => {} // the default; omit
            ConversionPolicy::Free => {
                let _ = writeln!(out, "conv {} free", v.index());
            }
            ConversionPolicy::Uniform(c) => {
                let _ = writeln!(out, "conv {} uniform {}", v.index(), finite(*c));
            }
            ConversionPolicy::Banded {
                radius,
                base,
                slope,
            } => {
                let _ = writeln!(
                    out,
                    "conv {} banded {} {} {}",
                    v.index(),
                    radius,
                    finite(*base),
                    finite(*slope),
                );
            }
            ConversionPolicy::Matrix(m) => {
                let mut pairs = Vec::new();
                for p in 0..network.k() {
                    for q in 0..network.k() {
                        if p == q {
                            continue;
                        }
                        let c = m.cost(Wavelength::new(p), Wavelength::new(q));
                        if let Some(value) = c.value() {
                            pairs.push(format!("{p}>{q}:{value}"));
                        }
                    }
                }
                let body = if pairs.is_empty() {
                    "-".to_string()
                } else {
                    pairs.join(",")
                };
                let _ = writeln!(out, "conv {} matrix {}", v.index(), body);
            }
        }
    }
    out
}

/// The largest node count `n` and wavelength count `k` [`from_text`]
/// accepts.
pub const SIZE_LIMIT: usize = 1 << 26;

/// The most cells (`k × k` per table) that all the conversion matrices
/// read by [`from_text`] may have together: a `matrix` line builds its
/// whole dense table at once and the parser keeps every table until the
/// end of the file, so a few bytes of text must not ask for more than
/// 32 MiB in all (one matrix with `k` up to 2,048, or 256 with `k` = 128).
pub const MAX_MATRIX_CELLS: usize = 1 << 22;

/// Parses a network from the text format.
///
/// `n` and `k` are checked against [`SIZE_LIMIT`] on their own lines,
/// and each may appear once; a `matrix` table that would take the
/// file's tables past [`MAX_MATRIX_CELLS`] cells is rejected before it
/// is built.
///
/// # Errors
///
/// [`ParseError`] describing the first offending line, or the network
/// validation failure.
pub fn from_text(text: &str) -> Result<WdmNetwork, ParseError> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));

    let (_, header) = lines.next().ok_or(ParseError::BadHeader)?;
    if header != "wdm v1" {
        return Err(ParseError::BadHeader);
    }

    /// Parsed `link` line: `(tail, head, [(λ, cost)])`.
    type RawLink = (usize, usize, Vec<(usize, u64)>);
    let mut n: Option<usize> = None;
    let mut k: Option<usize> = None;
    let mut links: Vec<RawLink> = Vec::new();
    let mut convs: Vec<(usize, ConversionPolicy)> = Vec::new();
    let mut matrix_cells = 0usize;

    for (line_no, line) in lines {
        let err = |reason: &str| ParseError::Malformed {
            line: line_no,
            reason: reason.to_string(),
        };
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("n") => {
                if n.is_some() {
                    return Err(err("duplicate `n` line"));
                }
                n = Some(parse_size(parts.next(), line_no, "node count")?);
            }
            Some("k") => {
                // A matrix already read is sized by the first `k`.
                if k.is_some() {
                    return Err(err("duplicate `k` line"));
                }
                k = Some(parse_size(parts.next(), line_no, "wavelength count")?);
            }
            Some("link") => {
                let tail: usize = parse_num(parts.next(), line_no, "link tail")?;
                let head: usize = parse_num(parts.next(), line_no, "link head")?;
                let spec = parts
                    .next()
                    .ok_or_else(|| err("missing availability list"))?;
                let mut entries = Vec::new();
                if spec != "-" {
                    for item in spec.split(',') {
                        let (l, c) = item
                            .split_once(':')
                            .ok_or_else(|| err("availability entry must be λ:cost"))?;
                        let l: usize = l.parse().map_err(|_| err("bad wavelength index"))?;
                        let c: u64 = c.parse().map_err(|_| err("bad cost"))?;
                        if l > u32::MAX as usize {
                            return Err(err("wavelength index too large"));
                        }
                        if c == u64::MAX {
                            return Err(err("cost value reserved for infinity"));
                        }
                        entries.push((l, c));
                    }
                }
                links.push((tail, head, entries));
            }
            Some("conv") => {
                let node: usize = parse_num(parts.next(), line_no, "conversion node")?;
                let kind = parts.next().ok_or_else(|| err("missing policy kind"))?;
                let policy = match kind {
                    "forbidden" => ConversionPolicy::Forbidden,
                    "free" => ConversionPolicy::Free,
                    "uniform" => {
                        let c: u64 = parse_num(parts.next(), line_no, "uniform cost")?;
                        if c == u64::MAX {
                            return Err(err("cost value reserved for infinity"));
                        }
                        ConversionPolicy::Uniform(Cost::new(c))
                    }
                    "banded" => {
                        let radius: usize = parse_num(parts.next(), line_no, "band radius")?;
                        let base: u64 = parse_num(parts.next(), line_no, "band base")?;
                        let slope: u64 = parse_num(parts.next(), line_no, "band slope")?;
                        if base == u64::MAX || slope == u64::MAX {
                            return Err(err("cost value reserved for infinity"));
                        }
                        ConversionPolicy::Banded {
                            radius,
                            base: Cost::new(base),
                            slope: Cost::new(slope),
                        }
                    }
                    "matrix" => {
                        let k = k.ok_or_else(|| err("matrix before `k` line"))?;
                        matrix_cells = match k
                            .checked_mul(k)
                            .and_then(|cells| cells.checked_add(matrix_cells))
                        {
                            Some(total) if total <= MAX_MATRIX_CELLS => total,
                            _ => {
                                return Err(err(&format!(
                                    "a {k} x {k} conversion matrix takes the \
                                     file's matrices past {MAX_MATRIX_CELLS} cells"
                                )))
                            }
                        };
                        let mut m = ConversionMatrix::forbidden(k);
                        let body = parts.next().ok_or_else(|| err("missing matrix body"))?;
                        if body != "-" {
                            for item in body.split(',') {
                                let (pair, c) = item
                                    .split_once(':')
                                    .ok_or_else(|| err("matrix entry must be p>q:cost"))?;
                                let (p, q) = pair
                                    .split_once('>')
                                    .ok_or_else(|| err("matrix pair must be p>q"))?;
                                let p: usize = p.parse().map_err(|_| err("bad from-λ"))?;
                                let q: usize = q.parse().map_err(|_| err("bad to-λ"))?;
                                let c: u64 = c.parse().map_err(|_| err("bad matrix cost"))?;
                                if p >= k || q >= k {
                                    return Err(err("matrix wavelength out of range"));
                                }
                                if c == u64::MAX {
                                    return Err(err("cost value reserved for infinity"));
                                }
                                if p == q {
                                    return Err(err("matrix diagonal is fixed at zero"));
                                }
                                m.set(Wavelength::new(p), Wavelength::new(q), Cost::new(c));
                            }
                        }
                        ConversionPolicy::Matrix(m)
                    }
                    other => return Err(err(&format!("unknown policy kind `{other}`"))),
                };
                convs.push((node, policy));
            }
            Some(other) => {
                return Err(err(&format!("unknown directive `{other}`")));
            }
            None => unreachable!("blank lines are filtered"),
        }
    }

    let n = n.ok_or(ParseError::Malformed {
        line: 0,
        reason: "missing `n` line".to_string(),
    })?;
    let k = k.ok_or(ParseError::Malformed {
        line: 0,
        reason: "missing `k` line".to_string(),
    })?;

    for &(tail, head, _) in &links {
        if tail >= n || head >= n {
            return Err(ParseError::Malformed {
                line: 0,
                reason: format!("link endpoint {tail}/{head} out of range for n = {n}"),
            });
        }
    }
    let graph = DiGraph::from_links(n, links.iter().map(|&(t, h, _)| (t, h)));
    let mut builder = WdmNetwork::builder(graph, k);
    for (i, (_, _, entries)) in links.into_iter().enumerate() {
        builder = builder.link_wavelengths(i, entries);
    }
    for (node, policy) in convs {
        if node >= n {
            return Err(ParseError::Malformed {
                line: 0,
                reason: format!("conversion node {node} out of range for n = {n}"),
            });
        }
        builder = builder.conversion(node, policy);
    }
    Ok(builder.build()?)
}

/// [`parse_num`] for `n` or `k`, at most [`SIZE_LIMIT`].
fn parse_size(token: Option<&str>, line: usize, what: &str) -> Result<usize, ParseError> {
    let size: usize = parse_num(token, line, what)?;
    if size > SIZE_LIMIT {
        return Err(ParseError::Malformed {
            line,
            reason: format!("{what} {size} exceeds the supported {SIZE_LIMIT}"),
        });
    }
    Ok(size)
}

fn parse_num<T: std::str::FromStr>(
    token: Option<&str>,
    line: usize,
    what: &str,
) -> Result<T, ParseError> {
    token
        .ok_or_else(|| ParseError::Malformed {
            line,
            reason: format!("missing {what}"),
        })?
        .parse()
        .map_err(|_| ParseError::Malformed {
            line,
            reason: format!("bad {what}"),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{random_network, Availability, ConversionSpec, InstanceConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use wdm_graph::topology;

    #[test]
    fn round_trips_every_policy_kind() {
        let g = DiGraph::from_links(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut m = ConversionMatrix::forbidden(3);
        m.set(Wavelength::new(0), Wavelength::new(2), Cost::new(9));
        let net = WdmNetwork::builder(g, 3)
            .link_wavelengths(0, [(0, 5), (2, 7)])
            .link_wavelengths(1, [(1, 6)])
            // link 2 left empty
            .link_wavelengths(3, [(0, 1), (1, 2), (2, 3)])
            .conversion(0, ConversionPolicy::Free)
            .conversion(1, ConversionPolicy::Uniform(Cost::new(4)))
            .conversion(
                2,
                ConversionPolicy::Banded {
                    radius: 1,
                    base: Cost::new(2),
                    slope: Cost::new(3),
                },
            )
            .conversion(3, ConversionPolicy::Matrix(m))
            .build()
            .expect("valid");
        let text = to_text(&net);
        let back = from_text(&text).expect("parses");
        assert_eq!(net, back);
    }

    #[test]
    fn round_trips_random_instances() {
        for seed in 0..5 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let net = random_network(
                topology::nsfnet(),
                &InstanceConfig {
                    k: 5,
                    availability: Availability::Probability(0.5),
                    link_cost: (1, 50),
                    conversion: ConversionSpec::RandomMatrix {
                        density: 0.4,
                        lo: 1,
                        hi: 9,
                    },
                },
                &mut rng,
            )
            .expect("valid");
            let back = from_text(&to_text(&net)).expect("parses");
            assert_eq!(net, back, "seed {seed}");
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "wdm v1\n# comment\n\nn 2\nk 1\nlink 0 1 0:3\n";
        let net = from_text(text).expect("parses");
        assert_eq!(net.node_count(), 2);
        assert_eq!(net.link_cost(0.into(), Wavelength::new(0)), Cost::new(3));
    }

    #[test]
    fn header_is_required() {
        assert_eq!(from_text(""), Err(ParseError::BadHeader));
        assert_eq!(from_text("wdm v2\nn 1\nk 1\n"), Err(ParseError::BadHeader));
    }

    #[test]
    fn malformed_lines_report_numbers() {
        let text = "wdm v1\nn 2\nk 1\nlink 0 nope 0:3\n";
        match from_text(text) {
            Err(ParseError::Malformed { line, .. }) => assert_eq!(line, 4),
            other => panic!("expected malformed, got {other:?}"),
        }
        let text = "wdm v1\nn 2\nk 1\nfrobnicate\n";
        assert!(matches!(
            from_text(text),
            Err(ParseError::Malformed { line: 4, .. })
        ));
    }

    #[test]
    fn out_of_range_references_are_rejected() {
        let text = "wdm v1\nn 2\nk 1\nlink 0 5 0:3\n";
        assert!(matches!(from_text(text), Err(ParseError::Malformed { .. })));
        let text = "wdm v1\nn 2\nk 1\nconv 9 free\n";
        assert!(matches!(from_text(text), Err(ParseError::Malformed { .. })));
        // Wavelength beyond k caught by network validation.
        let text = "wdm v1\nn 2\nk 1\nlink 0 1 5:3\n";
        assert!(matches!(from_text(text), Err(ParseError::Invalid(_))));
    }

    #[test]
    fn sizes_are_checked_on_their_own_lines() {
        let too_big = SIZE_LIMIT + 1;
        for (text, at) in [
            (format!("wdm v1\nn {too_big}\nk 1\n"), 2),
            (format!("wdm v1\nn 1\nk {too_big}\nconv 0 matrix -\n"), 3),
            (
                "wdm v1\nn 1\nk 4294967296\nconv 0 matrix -\n".to_string(),
                3,
            ),
        ] {
            let parsed = from_text(&text);
            assert!(
                matches!(parsed, Err(ParseError::Malformed { line, .. }) if line == at),
                "{text:?}: {parsed:?}"
            );
        }
        let text = "wdm v1\nn 1\nk 1\nconv 0 matrix -\nk 2\n";
        assert!(matches!(
            from_text(text),
            Err(ParseError::Malformed { line: 5, .. })
        ));
        let text = "wdm v1\nn 1\nn 2\nk 1\n";
        assert!(matches!(
            from_text(text),
            Err(ParseError::Malformed { line: 3, .. })
        ));
    }

    #[test]
    fn oversized_matrices_are_rejected_before_they_are_built() {
        // 2,049² cells is just past the cap; 2²⁶ is the largest `k`.
        for k in [2049, SIZE_LIMIT] {
            let text = format!("wdm v1\nn 1\nk {k}\nconv 0 matrix -\n");
            match from_text(&text) {
                Err(ParseError::Malformed { line: 4, reason }) => {
                    assert!(reason.contains("conversion matrix"), "{reason}");
                }
                other => panic!("k = {k}: expected a malformed matrix line, got {other:?}"),
            }
        }
        let net = from_text("wdm v1\nn 1\nk 3\nconv 0 matrix 0>2:4\n").expect("parses");
        let cost = net.conversion_cost(0.into(), Wavelength::new(0), Wavelength::new(2));
        assert_eq!(cost, Cost::new(4));
    }

    #[test]
    fn matrices_share_one_cell_budget() {
        // One 2,048² table fills the budget exactly; a second one on
        // another node would take the file past it.
        let one = "wdm v1\nn 4\nk 2048\nconv 0 matrix -\n";
        assert!(from_text(one).is_ok());
        match from_text(&format!("{one}conv 1 matrix -\n")) {
            Err(ParseError::Malformed { line: 5, reason }) => {
                assert!(reason.contains("conversion matrix"), "{reason}");
            }
            other => panic!("expected a malformed second matrix line, got {other:?}"),
        }
        // Small tables still add up under the cap.
        let many: String = (0..64).map(|v| format!("conv {v} matrix -\n")).collect();
        assert!(from_text(&format!("wdm v1\nn 64\nk 256\n{many}")).is_ok());
    }

    #[test]
    fn empty_availability_round_trips() {
        let g = DiGraph::from_links(2, [(0, 1)]);
        let net = WdmNetwork::builder(g, 2).build().expect("valid");
        let text = to_text(&net);
        assert!(text.contains("link 0 1 -"));
        assert_eq!(from_text(&text).expect("parses"), net);
    }

    #[test]
    fn paper_example_round_trips() {
        let net = crate::paper_example::network();
        let back = from_text(&to_text(&net)).expect("parses");
        assert_eq!(net, back);
    }
}
