//! The per-layer trace: the workload's operation stream driven
//! in-process, timing each layer's public entry point from outside and
//! counting its allocations with a counting global allocator.
//!
//! The workload's logical clients take strict turns (one op each), so
//! for a given seed every count below repeats exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::daemon::Prom;
use crate::layers::{self, Backend, Mirror, Net, Registry};
use crate::reply;
use crate::stats::median;
use crate::workload::{Created, Kind, Ledger, Op, Rng, Stream, Workload, BATCH, KINDS};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator, counting allocations and
/// reallocations.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a plain
// atomic statistic that touches no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded as received; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` and `layout` come from this allocator, which
        // always hands out `System` blocks.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations made so far by the whole process.
fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Time and allocation totals over a number of calls.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    calls: u64,
    ns: u64,
    allocs: u64,
}

impl Tally {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let a0 = allocations();
        let t0 = Instant::now();
        let out = f();
        self.ns += t0.elapsed().as_nanos() as u64;
        self.allocs += allocations() - a0;
        self.calls += 1;
        out
    }

    fn ns_per_call(&self) -> Option<f64> {
        (self.calls > 0).then(|| self.ns as f64 / self.calls as f64)
    }

    fn allocs_per_call(&self) -> Option<f64> {
        (self.calls > 0).then(|| self.allocs as f64 / self.calls as f64)
    }
}

/// One in-process pass over a fixed number of operations.
struct Pass {
    ops: u64,
    parse: Tally,
    execute: Tally,
    /// Mirror-engine calls by op kind (see [`Kind::index`]).
    engine: [Tally; 6],
    /// Mirror-engine time over the stream's own ops (no probes).
    stream_engine_ns: u64,
    /// The mirror's counters after the stream (before any probe).
    counters: Prom,
}

/// Drives the stream through the daemon's backend, then feeds the same
/// ops to the mirror engine. The two run one after the other, not
/// interleaved, so neither evicts the other's routing structures from
/// the cache between calls.
fn run_pass(
    w: &Workload,
    net: &Net,
    seed: u64,
    ops_per_client: usize,
    probe: bool,
) -> Result<Pass, String> {
    let registry = Registry::new();
    let mut backend = Backend::with_metrics(net, &registry);
    let mut streams: Vec<Stream> = (0..w.connections)
        .map(|c| Stream::new(w, seed, c, net.nodes(), net.links()))
        .collect();
    let mut ledger = Ledger::default();
    let mut pass = Pass {
        ops: 0,
        parse: Tally::default(),
        execute: Tally::default(),
        engine: [Tally::default(); 6],
        stream_engine_ns: 0,
        counters: Prom::default(),
    };
    let mut ops = Vec::with_capacity(ops_per_client * w.connections);
    let mut line = String::new();
    for _ in 0..ops_per_client {
        for (c, stream) in streams.iter_mut().enumerate() {
            if w.churn && c == 0 {
                stream.adopt(ledger.take_adopted());
            }
            let op = stream.next_op();
            line.clear();
            op.write_frame(&mut line);
            let frame = pass
                .parse
                .time(|| layers::parse_frame(line.trim_end()))
                .map_err(|e| format!("parse_frame rejected {line:?}: {e}"))?;
            let text = pass.execute.time(|| backend.execute_frame(&frame));
            let sum = reply::check(&op, &text).map_err(|e| format!("{e}: {text}"))?;
            stream.adopt(sum.ids.iter().copied());
            if let Some(seq) = sum.seq {
                ledger.record(Created {
                    seq,
                    count: sum.created,
                    first_id: sum.ids.first().copied(),
                });
            }
            ops.push(op);
        }
    }
    let mut mirror = Mirror::new(net);
    for op in &ops {
        pass.engine[op.kind().index()].time(|| mirror.apply(op));
    }
    pass.ops = ops.len() as u64;
    if mirror.totals() != backend.totals() {
        return Err(format!(
            "mirror engine diverged from the backend: {:?} vs {:?}",
            mirror.totals(),
            backend.totals()
        ));
    }
    pass.counters = Prom::parse(&mirror.prometheus());
    pass.stream_engine_ns = pass.engine.iter().map(|t| t.ns).sum();
    if probe {
        probe_missing_kinds(&mut pass, &mut mirror, net, seed);
    }
    Ok(pass)
}

/// Times one batch, one cut and its repair on the mirror when the stream
/// itself has none, so every engine row has a value on every workload.
/// A batch on the large instance solves all-pairs over 512 nodes and
/// takes seconds, so only the first pass probes.
fn probe_missing_kinds(pass: &mut Pass, mirror: &mut Mirror, net: &Net, seed: u64) {
    let mut rng = Rng::new(seed ^ 0x7072_6f62_6573);
    let nodes = net.nodes() as u32;
    let link = rng.below(net.links() as u64) as u32;
    let mut pairs = [(0, 0); BATCH];
    for p in &mut pairs {
        *p = rng.pair(nodes);
    }
    for op in [
        Op::Batch(Box::new(pairs)),
        Op::FailLink { link },
        Op::RestoreLink { link },
    ] {
        let t = &mut pass.engine[op.kind().index()];
        if t.calls == 0 {
            t.time(|| mirror.apply(&op));
        }
    }
}

/// Per-layer numbers from the in-process trace, by metric name.
pub type Layer = Vec<(&'static str, Option<f64>)>;

/// Repeats in-process passes for about `budget` (at least one) and
/// reports medians of timings across passes; counts come from the first
/// pass, since they repeat exactly.
pub fn measure(
    w: &Workload,
    net: &Net,
    text: &str,
    seed: u64,
    ops_per_client: usize,
    budget: Duration,
) -> Result<Layer, String> {
    let started = Instant::now();
    let mut passes = Vec::new();
    loop {
        let t0 = Instant::now();
        passes.push(run_pass(w, net, seed, ops_per_client, passes.is_empty())?);
        if started.elapsed() + t0.elapsed() > budget {
            break;
        }
    }
    let first = &passes[0];
    let med =
        |f: &dyn Fn(&Pass) -> Option<f64>| median(&passes.iter().filter_map(f).collect::<Vec<_>>());
    let per_op = |x: f64, p: &Pass| x / p.ops as f64;
    let counter = |name: &str| first.counters.get(name);
    let requests = counter("wdm_rwa_requests_total");
    let ratio = |num: Option<f64>, den: Option<f64>| match (num, den) {
        (Some(n), Some(d)) if d > 0.0 => Some(n / d),
        _ => None,
    };
    let search = |name: &str| ratio(counter(&format!("wdm_core_search_{name}_total")), requests);
    let skips = counter("wdm_core_search_masked_skips_total");
    let scans = match (skips, counter("wdm_core_search_relaxed_total")) {
        (Some(s), Some(r)) => Some(s + r),
        _ => None,
    };
    // Kinds the stream lacks were probed in the first pass only.
    let kind_us = |k: Kind| med(&|p| p.engine[k.index()].ns_per_call().map(|ns| ns / 1e3));

    let mut layer: Layer = vec![
        ("serve.protocol.parse_ns", med(&|p| p.parse.ns_per_call())),
        ("serve.protocol.parse_allocs", first.parse.allocs_per_call()),
        (
            "serve.backend.execute_us",
            med(&|p| p.execute.ns_per_call().map(|ns| ns / 1e3)),
        ),
        (
            "serve.backend.execute_allocs",
            first.execute.allocs_per_call(),
        ),
        (
            "serve.backend.render_us",
            med(&|p| Some(per_op(p.execute.ns as f64 - p.stream_engine_ns as f64, p) / 1e3)),
        ),
    ];
    for k in KINDS {
        if k != Kind::Stats {
            layer.push((engine_metric(k), kind_us(k)));
        }
    }
    layer.extend([
        (
            "rwa.engine.provision_allocs",
            first.engine[Kind::Provision.index()].allocs_per_call(),
        ),
        (
            "rwa.engine.batch_allocs",
            first.engine[Kind::Batch.index()].allocs_per_call(),
        ),
        (
            "rwa.engine.mask_flips_per_op",
            counter("wdm_rwa_mask_flips_total").map(|f| per_op(f, first)),
        ),
        (
            "rwa.engine.blocked_capacity_ratio",
            ratio(
                counter("wdm_rwa_blocked_total{cause=\"capacity\"}"),
                requests,
            ),
        ),
        (
            "rwa.engine.blocked_no_path_ratio",
            ratio(
                counter("wdm_rwa_blocked_total{cause=\"no_path\"}"),
                requests,
            ),
        ),
        ("core.search.settled_per_provision", search("settled")),
        ("core.search.relaxed_per_provision", search("relaxed")),
        ("core.search.pushes_per_provision", search("pushes")),
        (
            "core.search.decrease_keys_per_provision",
            search("decrease_keys"),
        ),
        ("core.search.masked_skip_ratio", ratio(skips, scans)),
    ]);
    layer.extend(setup_layers(net, text));
    Ok(layer)
}

fn engine_metric(k: Kind) -> &'static str {
    match k {
        Kind::Provision => "rwa.engine.provision_us",
        Kind::Release => "rwa.engine.release_us",
        Kind::FailLink => "rwa.engine.fail_link_us",
        Kind::RestoreLink => "rwa.engine.restore_link_us",
        Kind::Batch => "rwa.engine.batch_us",
        Kind::Stats => unreachable!("stats makes no engine call of its own"),
    }
}

/// Set-up layers, the registry lookup, and the clock itself.
fn setup_layers(net: &Net, text: &str) -> Layer {
    const REPS: usize = 5;
    const LOOKUPS: u64 = 20_000;
    const CLOCK_PAIRS: u64 = 100_000;
    let ms = |f: &dyn Fn()| {
        let samples: Vec<f64> = (0..REPS)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&samples)
    };
    let load_ms = ms(&|| {
        std::hint::black_box(Net::parse(text).is_ok());
    });
    let build_ms = ms(&|| layers::build_engine(net));

    let registry = Registry::daemon_shaped(net);
    let mut lookups = Tally::default();
    lookups.time(|| {
        for _ in 0..LOOKUPS {
            registry.lookup_op_counter("provision");
        }
    });
    let t0 = Instant::now();
    for _ in 0..CLOCK_PAIRS {
        std::hint::black_box(Instant::now());
        std::hint::black_box(Instant::now());
    }
    let clock_ns = t0.elapsed().as_nanos() as f64 / CLOCK_PAIRS as f64;
    vec![
        ("core.textfmt.load_ms", load_ms),
        ("core.residual.build_ms", build_ms),
        (
            "obs.registry.lookup_ns",
            Some(lookups.ns as f64 / LOOKUPS as f64),
        ),
        (
            "obs.registry.lookup_allocs",
            Some(lookups.allocs as f64 / LOOKUPS as f64),
        ),
        ("bench.clock_ns", Some(clock_ns)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::find;

    const NSFNET: &str = include_str!("../instances/nsfnet_k8.wdm");

    #[test]
    fn counts_repeat_exactly_for_a_seed() {
        let net = Net::parse(NSFNET).unwrap();
        for name in ["small_closed", "mixed_churn"] {
            let w = find(name).unwrap();
            let a = run_pass(w, &net, 4, 400, true).unwrap();
            let b = run_pass(w, &net, 4, 400, false).unwrap();
            // Allocation counts are process-wide, and the test harness
            // runs other tests on parallel threads, so only the engine's
            // own counters are compared here.
            assert_eq!(a.ops, 400 * w.connections as u64);
            for name in ["wdm_rwa_mask_flips_total", "wdm_core_search_settled_total"] {
                assert_eq!(a.counters.get(name), b.counters.get(name));
                assert!(a.counters.get(name).unwrap() > 0.0);
            }
            assert!(a.engine.iter().all(|t| t.calls > 0 || t.ns == 0));
        }
    }
}
