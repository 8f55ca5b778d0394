//! Connection-request workload generators.

use rand::Rng;
use wdm_graph::NodeId;

/// One connection request in a dynamic workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Source node.
    pub s: NodeId,
    /// Destination node.
    pub t: NodeId,
    /// Arrival time.
    pub arrival: f64,
    /// Holding time (how long the connection stays up once accepted).
    pub holding: f64,
}

/// A batch of requests that all arrive at once and never depart
/// (static/offline provisioning).
///
/// Endpoints are uniform over distinct node pairs.
pub fn static_requests<R: Rng + ?Sized>(n_nodes: usize, count: usize, rng: &mut R) -> Vec<Request> {
    assert!(n_nodes >= 2, "need at least two nodes for requests");
    (0..count)
        .map(|_| {
            let (s, t) = distinct_pair(n_nodes, rng);
            Request {
                s: NodeId::new(s),
                t: NodeId::new(t),
                arrival: 0.0,
                holding: f64::INFINITY,
            }
        })
        .collect()
}

/// A Poisson arrival process with exponential holding times.
///
/// `load` is the offered load in Erlang: the arrival rate is
/// `load / mean_holding`, so the expected number of simultaneously active
/// connections (if none blocked) is `load`.
///
/// # Panics
///
/// Panics if `n_nodes < 2`, `load <= 0`, or `mean_holding <= 0`.
pub fn poisson_requests<R: Rng + ?Sized>(
    n_nodes: usize,
    count: usize,
    load: f64,
    mean_holding: f64,
    rng: &mut R,
) -> Vec<Request> {
    assert!(n_nodes >= 2, "need at least two nodes for requests");
    assert!(load > 0.0, "load must be positive");
    assert!(mean_holding > 0.0, "mean holding time must be positive");
    let arrival_rate = load / mean_holding;
    let mut now = 0.0;
    (0..count)
        .map(|_| {
            now += exponential(arrival_rate, rng);
            let (s, t) = distinct_pair(n_nodes, rng);
            Request {
                s: NodeId::new(s),
                t: NodeId::new(t),
                arrival: now,
                holding: exponential(1.0 / mean_holding, rng),
            }
        })
        .collect()
}

/// Why a trace line could not be parsed by [`parse_trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number in the trace text.
    pub line: usize,
    /// What was wrong with it.
    pub reason: String,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for TraceError {}

/// Parses a replayable request trace.
///
/// One request per line, whitespace-separated:
///
/// ```text
/// # source target arrival holding
/// 0 3 0.00 12.5
/// 2 1 0.75 inf
/// ```
///
/// Blank lines and `#` comments are skipped. `holding` accepts `inf` for
/// connections that never depart. Endpoints must be distinct and below
/// `n_nodes`; arrivals must be finite, non-negative, and non-decreasing
/// and holdings positive, as [`crate::Replay`] requires.
///
/// # Errors
///
/// [`TraceError`] pinpointing the first offending line — malformed input
/// is a user error, never a panic.
pub fn parse_trace(text: &str, n_nodes: usize) -> Result<Vec<Request>, TraceError> {
    let mut requests = Vec::new();
    let mut last_arrival = 0.0f64;
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let err = |reason: String| TraceError { line, reason };
        let body = raw.split('#').next().unwrap_or("").trim();
        if body.is_empty() {
            continue;
        }
        let fields: Vec<&str> = body.split_whitespace().collect();
        let [s, t, arrival, holding] = fields[..] else {
            return Err(err(format!(
                "expected 4 fields `s t arrival holding`, found {}",
                fields.len()
            )));
        };
        let s: usize = s
            .parse()
            .map_err(|_| err(format!("bad source node `{s}`")))?;
        let t: usize = t
            .parse()
            .map_err(|_| err(format!("bad target node `{t}`")))?;
        let arrival: f64 = arrival
            .parse()
            .map_err(|_| err(format!("bad arrival time `{arrival}`")))?;
        let holding: f64 = match holding {
            "inf" => f64::INFINITY,
            h => h
                .parse()
                .map_err(|_| err(format!("bad holding time `{h}` (number or `inf`)")))?,
        };
        if s >= n_nodes || t >= n_nodes {
            return Err(err(format!(
                "endpoint out of range (instance has {n_nodes} nodes)"
            )));
        }
        if s == t {
            return Err(err(format!("source and target are both {s}")));
        }
        if !arrival.is_finite() || arrival < 0.0 {
            return Err(err(format!("arrival {arrival} must be finite and >= 0")));
        }
        if arrival < last_arrival {
            return Err(err(format!(
                "arrival {arrival} goes back in time (previous was {last_arrival})"
            )));
        }
        if holding.is_nan() || holding <= 0.0 {
            return Err(err(format!("holding {holding} must be > 0")));
        }
        last_arrival = arrival;
        requests.push(Request {
            s: NodeId::new(s),
            t: NodeId::new(t),
            arrival,
            holding,
        });
    }
    Ok(requests)
}

fn distinct_pair<R: Rng + ?Sized>(n: usize, rng: &mut R) -> (usize, usize) {
    let s = rng.gen_range(0..n);
    let mut t = rng.gen_range(0..n - 1);
    if t >= s {
        t += 1;
    }
    (s, t)
}

fn exponential<R: Rng + ?Sized>(rate: f64, rng: &mut R) -> f64 {
    // Inverse-CDF sampling; 1 - u avoids ln(0).
    let u: f64 = rng.gen();
    -(1.0 - u).ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn static_requests_have_distinct_endpoints() {
        let mut rng = SmallRng::seed_from_u64(1);
        for r in static_requests(5, 200, &mut rng) {
            assert_ne!(r.s, r.t);
            assert!(r.s.index() < 5 && r.t.index() < 5);
            assert_eq!(r.arrival, 0.0);
        }
    }

    #[test]
    fn poisson_arrivals_are_increasing() {
        let mut rng = SmallRng::seed_from_u64(2);
        let reqs = poisson_requests(10, 100, 8.0, 1.0, &mut rng);
        for w in reqs.windows(2) {
            assert!(w[1].arrival > w[0].arrival);
        }
        for r in &reqs {
            assert!(r.holding > 0.0);
            assert_ne!(r.s, r.t);
        }
    }

    #[test]
    fn poisson_load_controls_concurrency() {
        // Mean simultaneous connections ≈ load: with load 10 and many
        // requests, average arrivals per mean holding ≈ 10.
        let mut rng = SmallRng::seed_from_u64(3);
        let reqs = poisson_requests(6, 4000, 10.0, 2.0, &mut rng);
        let span = reqs.last().expect("non-empty").arrival;
        let rate = reqs.len() as f64 / span;
        // arrival_rate should be ≈ load / mean_holding = 5.
        assert!((rate - 5.0).abs() < 0.5, "measured rate {rate}");
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn single_node_workload_panics() {
        let mut rng = SmallRng::seed_from_u64(4);
        static_requests(1, 1, &mut rng);
    }

    #[test]
    fn trace_round_trips_and_accepts_comments() {
        let text = "# demo trace\n\n0 3 0.0 12.5\n2 1 0.75 inf # spike\n";
        let reqs = parse_trace(text, 4).expect("valid trace");
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].s.index(), 0);
        assert_eq!(reqs[0].t.index(), 3);
        assert_eq!(reqs[0].holding, 12.5);
        assert!(reqs[1].holding.is_infinite());
    }

    #[test]
    fn trace_errors_carry_line_numbers() {
        for (text, line, needle) in [
            ("0 1 0.0\n", 1, "4 fields"),
            ("0 1 0.0 1.0\n0 9 1.0 1.0\n", 2, "out of range"),
            ("3 3 0.0 1.0\n", 1, "source and target"),
            ("0 1 x 1.0\n", 1, "bad arrival"),
            ("0 1 5.0 1.0\n1 0 2.0 1.0\n", 2, "back in time"),
            ("0 1 0.0 0\n", 1, "must be > 0"),
            ("0 1 0.0 nope\n", 1, "bad holding"),
        ] {
            let err = parse_trace(text, 4).expect_err(text);
            assert_eq!(err.line, line, "{text}");
            assert!(err.reason.contains(needle), "{text}: {}", err.reason);
        }
    }

    #[test]
    fn endpoint_distribution_covers_all_pairs() {
        let mut rng = SmallRng::seed_from_u64(5);
        let reqs = static_requests(4, 2000, &mut rng);
        let mut seen = std::collections::HashSet::new();
        for r in reqs {
            seen.insert((r.s.index(), r.t.index()));
        }
        assert_eq!(seen.len(), 12, "all ordered pairs hit");
    }
}
