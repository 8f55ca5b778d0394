//! End-to-end benchmark of the `wdm serve` daemon.
//!
//! For each workload: launch the shipped daemon and drive it from the
//! workload's closed-loop client connections; time set-up by launching
//! it again at 25 points spread through the phase, while the clients
//! pause; check every reply (see `gate`); and print each end-to-end
//! metric with its unit. `--trace` also drives the same stream
//! in-process and prints the per-layer metrics (see `trace`).
//!
//! ```text
//! wdm-benchmark [--wdm PATH] [--workload NAME] [--seed N] [--seconds S]
//!               [--trace [0|1]] [--quick]
//! ```
//!
//! The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Before it, each workload prints a table and a `{"record": ...}` line
//! with every metric, the statistic behind it, and provenance.

mod client;
mod cpu;
mod daemon;
mod gate;
mod json;
mod layers;
mod reply;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use client::{Control, Record, Session};
use daemon::{Daemon, Prom};
use json::J;
use reply::Summary;
use workload::{Kind, Ledger, Stream, Workload, KINDS, WORKLOADS};

#[global_allocator]
static ALLOCATOR: trace::Counting = trace::Counting;

/// Timed daemon launches per run; set-up time is their median. They are
/// spread evenly through the phase, so a run's set-up time samples the
/// host across the whole run rather than at one instant.
const LAUNCHES: usize = 25;
/// Share of the timed phase discarded as warm-up, while the clients
/// fill the network up to their live-connection caps.
const WARMUP: f64 = 0.1;
/// Throughput, CPU per op and the median latencies are medians over
/// window slices this long. On a shared host, bursts of interference
/// that slow the CPU for tens of milliseconds then move a few slices
/// rather than the result.
const SLICE: Duration = Duration::from_millis(200);
/// The p99 is taken per run of consecutive slices holding at least this
/// many provisions (so at least ten lie beyond it), then the median of
/// those is reported.
const TAIL_SAMPLES: usize = 1000;
/// `--quick` runs at this fraction of the full length.
const QUICK: f64 = 0.02;
const DEFAULT_SECONDS: f64 = 12.0;

/// End-to-end metrics: name, unit, and the statistic behind the value.
/// `BENCHMARK.json` lists the same names and units.
const END_TO_END: [(&str, &str, &str); 7] = [
    (
        "throughput_ops_s",
        "ops/s",
        "median over 200 ms slices of ops sent / slice length",
    ),
    (
        "provision_p50_us",
        "us",
        "median over 200 ms slices of the nearest-rank p50 of client-observed provision RTTs",
    ),
    (
        "server_cpu_us_per_op",
        "us",
        "median over 200 ms slices of daemon thread CPU time (schedstat) / ops sent",
    ),
    (
        "server_peak_rss_mib",
        "MiB",
        "daemon VmHWM at the end of the phase",
    ),
    (
        "setup_s",
        "s",
        "median of 25 launches spread through the phase, spawn to readiness line",
    ),
    (
        "accept_ratio",
        "ratio",
        "accepted / provision attempts (batch pairs included), i.e. 1 - blocking ratio",
    ),
    ("path_cost_mean", "cost", "mean cost of accepted provisions"),
];

/// Metrics printed and recorded like the end-to-end ones but not in
/// `BENCHMARK.json`: their ten-seed spreads exceeded the largest bound
/// allowed, because the host's slow periods move them most.
const UNBOUNDED: [(&str, &str, &str); 2] = [
    (
        "release_p50_us",
        "us",
        "median over 200 ms slices of the nearest-rank p50 of client-observed release RTTs",
    ),
    (
        "provision_p99_us",
        "us",
        "median over runs of consecutive slices holding at least 1000 provisions of the nearest-rank p99 of their provision RTTs; null if no such run",
    ),
];

/// Per-layer metrics and units, in report order.
const PER_LAYER: [(&str, &str); 30] = [
    ("serve.protocol.parse_ns", "ns"),
    ("serve.protocol.parse_allocs", "allocs/frame"),
    ("serve.backend.execute_us", "us"),
    ("serve.backend.execute_allocs", "allocs/op"),
    ("serve.backend.render_us", "us"),
    ("serve.server.request_us", "us"),
    ("serve.server.engine_wait_us", "us"),
    ("serve.unaccounted_us", "us"),
    ("serve.server.ctx_switches_per_op", "count/op"),
    ("serve.server.preemptions_per_op", "count/op"),
    ("rwa.engine.provision_us", "us"),
    ("rwa.engine.release_us", "us"),
    ("rwa.engine.fail_link_us", "us"),
    ("rwa.engine.restore_link_us", "us"),
    ("rwa.engine.batch_us", "us"),
    ("rwa.engine.provision_allocs", "allocs/call"),
    ("rwa.engine.batch_allocs", "allocs/call"),
    ("rwa.engine.mask_flips_per_op", "count/op"),
    ("rwa.engine.blocked_capacity_ratio", "ratio"),
    ("rwa.engine.blocked_no_path_ratio", "ratio"),
    ("core.search.settled_per_provision", "count"),
    ("core.search.relaxed_per_provision", "count"),
    ("core.search.pushes_per_provision", "count"),
    ("core.search.decrease_keys_per_provision", "count"),
    ("core.search.masked_skip_ratio", "ratio"),
    ("core.textfmt.load_ms", "ms"),
    ("core.residual.build_ms", "ms"),
    ("obs.registry.lookup_ns", "ns"),
    ("obs.registry.lookup_allocs", "allocs/call"),
    ("bench.clock_ns", "ns"),
];

struct Args {
    wdm: PathBuf,
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    /// Not flags: the CPUs the benchmark could use, and the one it pinned
    /// itself to (see `cpu`).
    nproc: usize,
    cpu: Option<usize>,
}

const USAGE: &str = "usage: wdm-benchmark [--wdm PATH] [--workload NAME] [--seed N] \
                     [--seconds S] [--trace [0|1]] [--quick]";

fn parse_args() -> Result<Args, String> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let mut args = Args {
        wdm: Path::new(&target).join("release").join("wdm"),
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        nproc: thread::available_parallelism().map_or(0, |n| n.get()),
        cpu: None,
    };
    let mut seconds = None;
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--wdm" => args.wdm = PathBuf::from(value("--wdm")?),
            "--workload" => {
                let name = value("--workload")?;
                args.workload = Some(workload::find(&name).ok_or(format!(
                    "unknown workload `{name}` (want one of: {})",
                    WORKLOADS.map(|w| w.name).join(", ")
                ))?);
            }
            "--seed" => args.seed = value("--seed")?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                let s: f64 = value("--seconds")?.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                args.trace = it.peek().map(String::as_str) != Some("0");
                if matches!(it.peek().map(String::as_str), Some("0" | "1")) {
                    it.next();
                }
            }
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let scale = if args.quick { QUICK } else { 1.0 };
    args.seconds = seconds.unwrap_or(DEFAULT_SECONDS * scale);
    Ok(args)
}

/// What the benchmark reads about the daemon at a window boundary.
struct Probe {
    switches: (u64, u64),
    prom: Option<Prom>,
}

/// One slice of the window: when it began and ended, from phase start,
/// and the daemon's thread CPU time over it.
#[derive(Debug, Clone, Copy)]
struct Slice {
    begin: Duration,
    end: Duration,
    cpu_ns: Option<u64>,
}

/// Everything one timed phase against a live daemon yields.
struct Phase {
    session: Session,
    setups: Vec<f64>,
    warm: Duration,
    /// The nominal slice length.
    slice: Duration,
    /// The window's slices in time order. The pauses for set-up launches
    /// lie between slices, outside the window.
    slices: Vec<Slice>,
    /// Daemon CPU time over the whole phase, from `/proc/<pid>/stat`.
    cpu_s: Option<f64>,
    peak_rss_mib: Option<f64>,
    before: Probe,
    after: Probe,
    drained: Result<(), String>,
    /// Whether the churn ledger stopped adopting restored connections.
    ledger_broken: bool,
}

impl Phase {
    /// The window's length: its slices, without warm-up or pauses.
    fn window_s(&self) -> f64 {
        self.slices
            .iter()
            .map(|s| (s.end - s.begin).as_secs_f64())
            .sum()
    }
}

/// How many set-up launches follow each slice (index 1..=`slices`):
/// `LAUNCHES` in all, evenly spaced, the last after the final slice.
fn launches_after(slices: usize) -> Vec<usize> {
    let mut due = vec![0; slices + 1];
    for k in 1..=LAUNCHES {
        due[(k * slices).div_ceil(LAUNCHES)] += 1;
    }
    due
}

/// Launches the daemon and drives it from the workload's clients for
/// the phase, pausing them between slices for the timed set-up launches,
/// then drains it.
fn run_phase(
    args: &Args,
    w: &'static Workload,
    net: &layers::Net,
    instance: &Path,
) -> Result<Phase, String> {
    let launch = || {
        Daemon::launch(&args.wdm, instance)
            .map_err(|e| format!("cannot launch {}: {e}", args.wdm.display()))
    };
    // The clients' work between launch points evicts the binary's code
    // from the CPU caches. A first launch after it took about 40% longer
    // and varied several times more, so each point launches twice and
    // times the second, which runs warm as back-to-back launches do.
    let timed_launch = || -> Result<f64, String> {
        drop(launch()?);
        Ok(launch()?.1.as_secs_f64())
    };
    let (daemon, _) = launch()?;
    let (pid, addr) = (daemon.pid(), daemon.addr.clone());

    let length = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let warm = length.mul_f64(WARMUP);
    let slices = ((length - warm).as_secs_f64() / SLICE.as_secs_f64())
        .round()
        .max(1.0) as usize;
    let slice = (length - warm) / slices as u32;
    let due = launches_after(slices);
    let probe = || Probe {
        switches: daemon::context_switches(pid),
        prom: args
            .trace
            .then(|| daemon::scrape(&addr).ok().map(|t| Prom::parse(&t)))
            .flatten(),
    };
    let ledger = w.churn.then(|| Mutex::new(Ledger::default()));
    let control = Control::default();
    let cpu0 = daemon::cpu_seconds(pid);
    let start = Instant::now();
    let (parts, before, after, window, setups) = thread::scope(|scope| {
        let clients: Vec<_> = (0..w.connections)
            .map(|c| {
                let stream = Stream::new(w, args.seed, c, net.nodes(), net.links());
                let (addr, ledger, control) = (&addr, ledger.as_ref(), &control);
                scope.spawn(move || client::drive(addr, c, stream, ledger, start, control))
            })
            .collect();
        thread::sleep(warm.saturating_sub(start.elapsed()));
        let before = probe();
        let mut window = Vec::with_capacity(slices);
        let mut setups = Ok(Vec::with_capacity(LAUNCHES));
        let mut begin = (start.elapsed(), daemon::thread_cpu_ns(pid));
        for (i, &launches) in due.iter().enumerate().skip(1) {
            thread::sleep((begin.0 + slice).saturating_sub(start.elapsed()));
            let end = start.elapsed();
            // Pausing waits for the requests in flight, so the CPU read
            // below covers every op sent in the slice and the launches
            // do not compete with the clients.
            let pause = launches > 0 || i == slices;
            if pause {
                control.pause(w.connections);
            }
            let cpu = daemon::thread_cpu_ns(pid);
            window.push(Slice {
                begin: begin.0,
                end,
                cpu_ns: cpu.zip(begin.1).and_then(|(b, a)| b.checked_sub(a)),
            });
            if let Ok(s) = &mut setups {
                for _ in 0..launches {
                    match timed_launch() {
                        Ok(ready) => s.push(ready),
                        Err(e) => {
                            setups = Err(e);
                            break;
                        }
                    }
                }
            }
            if setups.is_err() || i == slices {
                break;
            }
            begin = if pause {
                control.resume();
                (start.elapsed(), daemon::thread_cpu_ns(pid))
            } else {
                (end, cpu)
            };
        }
        let after = probe();
        control.stop();
        let (parts, sockets): (Vec<Session>, Vec<_>) = clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .unzip();
        drop(sockets);
        (parts, before, after, window, setups)
    });
    let cpu_s = match (cpu0, daemon::cpu_seconds(pid)) {
        (Some(a), Some(b)) => Some(b - a),
        _ => None,
    };
    Ok(Phase {
        session: Session::merge(parts),
        setups: setups?,
        warm,
        slice,
        slices: window,
        cpu_s,
        peak_rss_mib: daemon::peak_rss_mib(pid),
        before,
        after,
        drained: daemon.drain(),
        ledger_broken: ledger.is_some_and(|l| l.into_inner().expect("ledger lock").broken()),
    })
}

/// Statistics over the ops sent after warm-up.
struct Window {
    ops_by_kind: [u64; 6],
    ops: u64,
    /// Every op of the phase, warm-up included, plus transport errors.
    attempted: u64,
    failed: u64,
    /// Values in `END_TO_END` order.
    e2e: [Option<f64>; 7],
    /// Values in `UNBOUNDED` order.
    unbounded: [Option<f64>; 2],
    rtt_mean_us: Option<f64>,
    /// Ops sent per slice, to show how steady the window was.
    ops_by_slice: Vec<u64>,
}

/// Accumulates [`Window`] from the records the gate finds valid.
struct WindowAcc<'a> {
    slices: &'a [Slice],
    ops_by_kind: [u64; 6],
    ops_by_slice: Vec<u64>,
    provision_by_slice: Vec<Vec<u64>>,
    release_by_slice: Vec<Vec<u64>>,
    attempts: u64,
    blocked: u64,
    accepted: u64,
    cost_sum: u64,
    rtt_sum_s: f64,
    failed: u64,
}

impl<'a> WindowAcc<'a> {
    fn new(phase: &'a Phase) -> Self {
        let slices = phase.slices.len();
        WindowAcc {
            slices: &phase.slices,
            ops_by_kind: [0; 6],
            ops_by_slice: vec![0; slices],
            provision_by_slice: vec![Vec::new(); slices],
            release_by_slice: vec![Vec::new(); slices],
            attempts: 0,
            blocked: 0,
            accepted: 0,
            cost_sum: 0,
            rtt_sum_s: 0.0,
            failed: 0,
        }
    }

    /// The slice an op sent at `sent` belongs to; `None` during warm-up
    /// and pauses.
    fn slice_of(&self, sent: Duration) -> Option<usize> {
        let at = self
            .slices
            .partition_point(|s| s.begin <= sent)
            .checked_sub(1)?;
        (sent < self.slices[at].end).then_some(at)
    }

    fn add(&mut self, r: &Record, s: &Summary) {
        self.failed += u64::from(s.failure);
        let Some(at) = self.slice_of(r.sent) else {
            return;
        };
        let kind = r.op.kind();
        self.ops_by_kind[kind.index()] += 1;
        self.ops_by_slice[at] += 1;
        self.rtt_sum_s += r.rtt.as_secs_f64();
        let rtt_ns = r.rtt.as_nanos() as u64;
        match kind {
            Kind::Provision => self.provision_by_slice[at].push(rtt_ns),
            Kind::Release => self.release_by_slice[at].push(rtt_ns),
            _ => {}
        }
        self.attempts += u64::from(s.attempts);
        self.blocked += u64::from(s.blocked);
        self.accepted += s.ids.len() as u64;
        self.cost_sum += s.cost_sum;
    }

    fn finish(mut self, phase: &Phase) -> Window {
        let ops: u64 = self.ops_by_kind.iter().sum();
        let per = |num: f64, den: u64| (den > 0).then(|| num / den as f64);
        let us = |ns: Option<u64>| ns.map(|v| v as f64 / 1e3);
        for v in self
            .provision_by_slice
            .iter_mut()
            .chain(&mut self.release_by_slice)
        {
            v.sort_unstable();
        }
        let median_slice_p50 = |by_slice: &[Vec<u64>]| {
            let p50s: Vec<f64> = by_slice
                .iter()
                .filter_map(|v| us(stats::supported_quantile(v, 0.5)))
                .collect();
            stats::median(&p50s)
        };
        let throughput: Vec<f64> = self
            .slices
            .iter()
            .zip(&self.ops_by_slice)
            .map(|(s, &n)| n as f64 / (s.end - s.begin).as_secs_f64())
            .collect();
        let cpu_per_op: Vec<f64> = self
            .slices
            .iter()
            .zip(&self.ops_by_slice)
            .filter_map(|(s, &n)| per(s.cpu_ns? as f64 / 1e3, n))
            .collect();
        let session = &phase.session;
        Window {
            ops_by_kind: self.ops_by_kind,
            ops,
            attempted: session.records.len() as u64 + session.transport_errors.len() as u64,
            failed: self.failed + session.transport_errors.len() as u64,
            e2e: [
                stats::median(&throughput),
                median_slice_p50(&self.provision_by_slice),
                stats::median(&cpu_per_op),
                phase.peak_rss_mib,
                stats::median(&phase.setups),
                per((self.attempts - self.blocked) as f64, self.attempts),
                per(self.cost_sum as f64, self.accepted),
            ],
            unbounded: [
                median_slice_p50(&self.release_by_slice),
                stats::windowed_quantile(&self.provision_by_slice, TAIL_SAMPLES, 0.99)
                    .map(|ns| ns / 1e3),
            ],
            rtt_mean_us: per(self.rtt_sum_s * 1e6, ops),
            ops_by_slice: self.ops_by_slice,
        }
    }
}

fn lookup(layer: &trace::Layer, name: &str) -> Option<f64> {
    layer.iter().find(|(n, _)| *n == name).and_then(|(_, v)| *v)
}

/// The per-layer rows that come from the live daemon: its latency
/// histogram scraped before and after the window, and its threads'
/// context switches, set against the in-process numbers in `layer`.
fn daemon_layers(phase: &Phase, window: &Window, layer: &trace::Layer) -> trace::Layer {
    let series = |p: &Probe, name: &str| p.prom.as_ref().and_then(|p| p.get(name));
    let delta = |name: &str| Some(series(&phase.after, name)? - series(&phase.before, name)?);
    let request_us = match (
        delta("wdm_serve_request_latency_ns_sum"),
        delta("wdm_serve_request_latency_ns_count"),
    ) {
        (Some(sum), Some(n)) if n > 0.0 => Some(sum / n / 1e3),
        _ => None,
    };
    let diff = |a: Option<f64>, b: Option<f64>| Some(a? - b?);
    let parse_us = lookup(layer, "serve.protocol.parse_ns").map(|ns| ns / 1e3);
    let per_op = |f: fn((u64, u64)) -> u64| {
        let n = f(phase.after.switches).saturating_sub(f(phase.before.switches));
        (window.ops > 0).then(|| n as f64 / window.ops as f64)
    };
    vec![
        ("serve.server.request_us", request_us),
        (
            "serve.server.engine_wait_us",
            diff(request_us, lookup(layer, "serve.backend.execute_us")),
        ),
        (
            "serve.unaccounted_us",
            diff(diff(window.rtt_mean_us, request_us), parse_us),
        ),
        ("serve.server.ctx_switches_per_op", per_op(|s| s.0)),
        ("serve.server.preemptions_per_op", per_op(|s| s.1)),
    ]
}

/// The outcome of one workload: what the result line needs.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, Option<f64>, &'static str)>,
}

fn run_workload(args: &Args, w: &'static Workload) -> Result<Outcome, String> {
    let instance = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("instances")
        .join(w.instance);
    let text = std::fs::read_to_string(&instance)
        .map_err(|e| format!("cannot read {}: {e}", instance.display()))?;
    let net = layers::Net::parse(&text).map_err(|e| format!("{}: {e}", w.instance))?;

    let phase = run_phase(args, w, &net, &instance)?;
    let mut acc = WindowAcc::new(&phase);
    let mut problems = gate::verify(&net, &phase.session, |r, s| acc.add(r, s));
    let window = acc.finish(&phase);
    if let Err(e) = &phase.drained {
        problems.push(format!("daemon did not drain cleanly: {e}"));
    }
    problems.extend(
        phase
            .session
            .transport_errors
            .iter()
            .map(|e| format!("transport: {e}")),
    );
    let mut notes = Vec::new();
    if phase.ledger_broken {
        notes.push("connection ids were not consecutive; restored connections were not adopted");
    }

    let mut layer = trace::Layer::new();
    if args.trace {
        let scale = if args.quick { QUICK } else { 1.0 };
        let ops_per_client = ((w.trace_ops as f64 * scale) as usize).max(1);
        let budget = Duration::from_secs_f64(args.seconds / 2.0);
        layer = trace::measure(w, &net, &text, args.seed, ops_per_client, budget)
            .map_err(|e| format!("in-process trace: {e}"))?;
        layer.extend(daemon_layers(&phase, &window, &layer));
    }
    let per_layer: Vec<(&str, Option<f64>, &str)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, lookup(&layer, name), unit))
        .collect();
    let e2e: Vec<(&str, Option<f64>, &str)> = END_TO_END
        .iter()
        .zip(window.e2e)
        .map(|(&(name, unit, _), v)| (name, v, unit))
        .collect();
    let failed_ratio =
        (window.attempted > 0).then(|| window.failed as f64 / window.attempted as f64);
    let correct = problems.is_empty();

    println!(
        "workload {} ({}): seed {}, {} connection(s), {:.2} s window after {:.2} s warm-up, {} ops in window, {} in all",
        w.name,
        w.instance,
        args.seed,
        w.connections,
        phase.window_s(),
        phase.warm.as_secs_f64(),
        window.ops,
        window.attempted
    );
    let mut all = e2e.clone();
    all.extend(
        UNBOUNDED
            .iter()
            .zip(window.unbounded)
            .map(|(&(name, unit, _), v)| (name, v, unit)),
    );
    all.push(("failed_ratio", failed_ratio, "ratio"));
    let traced: &[_] = if args.trace { &per_layer } else { &[] };
    for (name, v, unit) in all.iter().chain(traced) {
        let v = v.map_or("null".into(), |v| format!("{v:.4}"));
        println!("  {name:<40} {v:>14} {unit}");
    }
    println!(
        "  correctness gate: {}",
        if correct { "passed" } else { "FAILED" }
    );
    for p in &problems {
        println!("    {p}");
    }

    let metrics_json = |rows: &[(&str, Option<f64>, &str)]| {
        J::Obj(
            rows.iter()
                .map(|&(name, v, unit)| (name.to_string(), J::metric(v, unit)))
                .collect(),
        )
    };
    let record = J::obj([
        ("workload", J::str(w.name)),
        ("instance", J::str(w.instance)),
        (
            "commit",
            J::str(std::env::var("WDM_BENCH_COMMIT").unwrap_or_else(|_| "unknown".into())),
        ),
        (
            "profile",
            J::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("nproc", J::Int(args.nproc as u64)),
        ("pinned_cpu", J::Num(args.cpu.map(|c| c as f64))),
        ("seed", J::Int(args.seed)),
        ("seconds", J::Num(Some(args.seconds))),
        ("quick", J::Bool(args.quick)),
        ("trace", J::Bool(args.trace)),
        ("transport", J::str("loopback TCP, closed loop")),
        ("connections", J::Int(w.connections as u64)),
        ("live_cap", J::Int(w.cap as u64)),
        ("launches", J::Int(LAUNCHES as u64)),
        (
            "setup_samples_s",
            J::Arr(phase.setups.iter().map(|&s| J::Num(Some(s))).collect()),
        ),
        ("warmup_s", J::Num(Some(phase.warm.as_secs_f64()))),
        ("slice_s", J::Num(Some(phase.slice.as_secs_f64()))),
        ("window_s", J::Num(Some(phase.window_s()))),
        (
            "slice_ops",
            J::Arr(window.ops_by_slice.iter().map(|&n| J::Int(n)).collect()),
        ),
        (
            "window_ops",
            J::Obj(
                KINDS
                    .iter()
                    .map(|k| (k.name().to_string(), J::Int(window.ops_by_kind[k.index()])))
                    .collect(),
            ),
        ),
        ("attempted", J::Int(window.attempted)),
        ("failed", J::Int(window.failed)),
        ("daemon_cpu_s", J::Num(phase.cpu_s)),
        (
            "benchmark_peak_rss_mib",
            J::Num(daemon::peak_rss_mib(std::process::id())),
        ),
        (
            "statistic",
            J::Obj(
                END_TO_END
                    .iter()
                    .chain(&UNBOUNDED)
                    .map(|&(name, _, stat)| (name.to_string(), J::str(stat)))
                    .collect(),
            ),
        ),
        ("metrics", metrics_json(&all)),
        ("per_layer", metrics_json(traced)),
        ("correct", J::Bool(correct)),
        ("problems", J::Arr(problems.iter().map(J::str).collect())),
        ("notes", J::Arr(notes.into_iter().map(J::str).collect())),
    ]);
    println!("{}", J::obj([("record", record)]).line());
    Ok(Outcome {
        correct,
        attempted: window.attempted,
        failed: window.failed,
        metrics: if args.trace { per_layer } else { e2e },
    })
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wdm-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // After this, `available_parallelism` reads 1 here and in every
    // daemon launched, so `args.nproc` was taken before.
    args.cpu = match cpu::pin_to_one() {
        Ok(cpu) => Some(cpu),
        Err(e) => {
            eprintln!("wdm-benchmark: running unpinned: {e}");
            None
        }
    };
    let chosen: Vec<&'static Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let mut outcomes = Vec::new();
    for w in &chosen {
        match run_workload(&args, w) {
            Ok(o) => outcomes.push(o),
            Err(e) => {
                eprintln!("wdm-benchmark: {}: {e}", w.name);
                return ExitCode::from(2);
            }
        }
    }
    // One workload reports its metrics by name; several prefix each
    // name with its workload.
    let single = outcomes.len() == 1;
    let metrics = outcomes
        .iter()
        .zip(&chosen)
        .flat_map(|(o, w)| {
            o.metrics.iter().map(move |&(name, v, unit)| {
                let key = if single {
                    name.to_string()
                } else {
                    format!("{}.{name}", w.name)
                };
                (key, J::metric(v, unit))
            })
        })
        .collect();
    let correct = outcomes.iter().all(|o| o.correct);
    let result = J::obj([
        ("correct", J::Bool(correct)),
        (
            "attempted",
            J::Int(outcomes.iter().map(|o| o.attempted).sum()),
        ),
        ("failed", J::Int(outcomes.iter().map(|o| o.failed).sum())),
        ("metrics", J::Obj(metrics)),
    ]);
    println!("{}", result.line());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launches_spread_evenly_and_the_last_follows_the_final_slice() {
        for slices in [1, 2, 24, 25, 45, 90] {
            let due = launches_after(slices);
            assert_eq!(due.iter().sum::<usize>(), LAUNCHES, "{slices}");
            assert_eq!(due[0], 0);
            assert!(due[slices] > 0);
        }
        let due = launches_after(90);
        assert!(due.iter().all(|&n| n <= 1));
        assert_eq!(due.iter().position(|&n| n > 0), Some(4));
        assert_eq!(launches_after(1), vec![0, LAUNCHES]);
    }

    /// `BENCHMARK.json` must list exactly the metrics this binary emits.
    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit() {
        let spec = include_str!("../../BENCHMARK.json");
        let listed = |name: &str, unit: &str| {
            spec.contains(&format!(r#""name": "{name}", "unit": "{unit}""#))
        };
        for (name, unit, _) in END_TO_END {
            assert!(listed(name, unit), "end_to_end {name} ({unit})");
        }
        for (name, unit) in PER_LAYER {
            assert!(listed(name, unit), "per_layer {name} ({unit})");
        }
        let names = spec.matches(r#""name": ""#).count();
        assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len());
        for w in &WORKLOADS {
            assert!(
                spec.contains(&format!(r#"{{"name": "{}", "why""#, w.name)),
                "{}",
                w.name
            );
        }
    }
}
