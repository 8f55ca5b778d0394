//! `wdm serve-workload` — drive a Poisson or recorded request/release
//! trace through the provisioning engine.

use std::fmt::Write as _;
use std::path::Path;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use wdm_obs::MetricsRegistry;
use wdm_rwa::{workload, Policy, ProvisioningEngine, Replay};

use crate::util::{self, parse_policy, usage_error};
use crate::Command;

/// The `serve-workload` subcommand.
pub struct ServeWorkload;

impl Command for ServeWorkload {
    fn name(&self) -> &'static str {
        "serve-workload"
    }

    fn summary(&self) -> &'static str {
        "replay a dynamic provisioning trace through the engine"
    }

    fn usage(&self) -> &'static str {
        "  wdm serve-workload <file.wdm> [--requests <n>] [--load <erlang>]
      [--holding <mean>] [--seed <s>] [--policy optimal|lightpath|first-fit]
      [--fail-link <id>] [--restore-after <n>]
      [--trace <file>]
      [--metrics-out <file>] [--metrics-interval <n>]
      [--trace-out <file>] [--trace-text <file>] [--trace-sample <n>]
      drives a Poisson request/release trace through the provisioning
      engine; --trace replays a recorded trace file instead (one
      `s t arrival holding` line per request, `#` comments, `inf`
      holding), ignoring --requests/--load/--holding/--seed;
      --fail-link cuts a fibre halfway through the trace
      (the cut persists until restored), --restore-after n heals that
      fibre again just before request n (must lie past the midpoint
      cut);
      --metrics-out writes a JSON metrics snapshot at the end (and adds
      a request-latency summary to the report), --metrics-interval n
      rewrites a Prometheus text dump at <file>.prom every n requests
      (atomic whole-file replace — scrapers never see a torn file);
      --trace-out attaches a flight recorder and writes its snapshot as
      Chrome trace_event JSON, --trace-text writes the human-readable
      span tree, --trace-sample n tail-samples the snapshot to blocked
      traces plus the slowest n (keeps long runs bounded)"
    }

    fn run(&self, args: &[String], out: &mut String) -> i32 {
        let mut path: Option<&String> = None;
        let mut requests = 200usize;
        let mut load = 6.0f64;
        let mut holding = 1.0f64;
        let mut seed = 0u64;
        let mut policy = Policy::Optimal;
        let mut fail_link: Option<usize> = None;
        let mut restore_after: Option<usize> = None;
        let mut trace_path: Option<String> = None;
        let mut metrics_out: Option<String> = None;
        let mut metrics_interval: Option<usize> = None;
        let mut trace_out: Option<String> = None;
        let mut trace_text: Option<String> = None;
        let mut trace_sample = 0usize;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--requests" => {
                    requests = match it.next().and_then(|v| v.parse().ok()) {
                        Some(0) | None => return usage_error(out, "bad --requests (want n >= 1)"),
                        Some(n) => n,
                    }
                }
                "--load" => {
                    load = match it.next().and_then(|v| v.parse().ok()) {
                        Some(l) if l > 0.0 => l,
                        _ => return usage_error(out, "bad --load (want erlang > 0)"),
                    }
                }
                "--holding" => {
                    holding = match it.next().and_then(|v| v.parse().ok()) {
                        Some(h) if h > 0.0 => h,
                        _ => return usage_error(out, "bad --holding (want mean > 0)"),
                    }
                }
                "--seed" => {
                    seed = match it.next().and_then(|v| v.parse().ok()) {
                        Some(s) => s,
                        None => return usage_error(out, "bad --seed"),
                    }
                }
                "--policy" => {
                    policy = match parse_policy(it.next().map(String::as_str)) {
                        Some(p) => p,
                        None => {
                            return usage_error(out, "bad --policy (optimal|lightpath|first-fit)")
                        }
                    }
                }
                "--fail-link" => {
                    fail_link = match it.next().and_then(|v| v.parse().ok()) {
                        Some(e) => Some(e),
                        None => return usage_error(out, "bad --fail-link (want link index)"),
                    }
                }
                "--restore-after" => {
                    restore_after = match it.next().and_then(|v| v.parse().ok()) {
                        Some(n) => Some(n),
                        None => {
                            return usage_error(out, "bad --restore-after (want request index)")
                        }
                    }
                }
                "--trace" => {
                    trace_path = match it.next() {
                        Some(p) => Some(p.clone()),
                        None => return usage_error(out, "missing --trace path"),
                    }
                }
                "--metrics-out" => {
                    metrics_out = match it.next() {
                        Some(p) => Some(p.clone()),
                        None => return usage_error(out, "missing --metrics-out path"),
                    }
                }
                "--metrics-interval" => {
                    metrics_interval = match it.next().and_then(|v| v.parse().ok()) {
                        Some(0) | None => {
                            return usage_error(out, "bad --metrics-interval (want n >= 1)")
                        }
                        some => some,
                    }
                }
                "--trace-out" => {
                    trace_out = match it.next() {
                        Some(p) => Some(p.clone()),
                        None => return usage_error(out, "missing --trace-out path"),
                    }
                }
                "--trace-text" => {
                    trace_text = match it.next() {
                        Some(p) => Some(p.clone()),
                        None => return usage_error(out, "missing --trace-text path"),
                    }
                }
                "--trace-sample" => {
                    trace_sample = match it.next().and_then(|v| v.parse().ok()) {
                        Some(n) => n,
                        None => {
                            return usage_error(
                                out,
                                "bad --trace-sample (want slowest-n count, 0 = keep all)",
                            )
                        }
                    }
                }
                flag if flag.starts_with("--") => {
                    return usage_error(out, &format!("unknown flag `{flag}`"))
                }
                _ if path.is_none() => path = Some(a),
                extra => return usage_error(out, &format!("unexpected argument `{extra}`")),
            }
        }
        let Some(path) = path else {
            return usage_error(out, "serve-workload takes one file");
        };
        if metrics_interval.is_some() && metrics_out.is_none() {
            return usage_error(out, "--metrics-interval requires --metrics-out");
        }
        if restore_after.is_some() && fail_link.is_none() {
            return usage_error(out, "--restore-after requires --fail-link");
        }
        let net = match util::load(path, out) {
            Ok(n) => n,
            Err(code) => return code,
        };
        if net.node_count() < 2 {
            let _ = writeln!(out, "error: workload needs at least two nodes");
            return 1;
        }
        // A link index the instance doesn't have is a bad argument, not a
        // runtime failure: reject it as a usage error before the engine
        // (whose `fail_link` asserts the range) ever sees it.
        if let Some(e) = fail_link {
            if e >= net.link_count() {
                return usage_error(
                    out,
                    &format!(
                        "--fail-link {e} out of range (instance has {} links)",
                        net.link_count()
                    ),
                );
            }
        }

        let trace = match &trace_path {
            Some(p) => {
                let text = match std::fs::read_to_string(p) {
                    Ok(t) => t,
                    Err(e) => {
                        let _ = writeln!(out, "error: cannot read trace {p}: {e}");
                        return 1;
                    }
                };
                match workload::parse_trace(&text, net.node_count()) {
                    Ok(reqs) if reqs.is_empty() => {
                        let _ = writeln!(out, "error: trace {p} contains no requests");
                        return 1;
                    }
                    Ok(reqs) => reqs,
                    Err(e) => {
                        let _ = writeln!(out, "error: {p}: {e}");
                        return 1;
                    }
                }
            }
            None => {
                let mut rng = SmallRng::seed_from_u64(seed);
                workload::poisson_requests(net.node_count(), requests, load, holding, &mut rng)
            }
        };
        if trace_sample > 0 && trace_out.is_none() && trace_text.is_none() {
            return usage_error(out, "--trace-sample requires --trace-out or --trace-text");
        }
        let requests = trace.len();
        let mut engine = ProvisioningEngine::new(&net);
        let registry = metrics_out.as_ref().map(|_| MetricsRegistry::new());
        if let Some(registry) = &registry {
            engine.attach_metrics(registry);
        }
        // The single engine runs the whole trace from one thread, so one
        // writer segment suffices; the ring bounds memory for arbitrarily
        // long traces and tail sampling keeps the interesting requests.
        let recorder = (trace_out.is_some() || trace_text.is_some()).then(|| {
            use wdm_obs::trace::{FlightRecorder, TailSampling};
            match trace_sample {
                0 => FlightRecorder::new(1, 1 << 16),
                n => FlightRecorder::with_sampling(1, 1 << 16, TailSampling::keep_slowest(n)),
            }
        });
        if let Some(recorder) = &recorder {
            engine.attach_tracer(recorder);
        }
        // Periodic dumps accumulate in memory and republish the sibling
        // `.prom` file as a whole via an atomic rename, so a concurrent
        // reader (or a crash mid-write) never observes a torn file. The
        // initial empty publish both clears a previous trace's samples
        // and fails fast on an unwritable path.
        let prom_path = match (&metrics_out, metrics_interval) {
            (Some(base), Some(_)) => {
                let p = format!("{base}.prom");
                if let Err(e) = wdm_obs::write_atomic(Path::new(&p), b"") {
                    let _ = writeln!(out, "error: cannot write {p}: {e}");
                    return 1;
                }
                Some(p)
            }
            _ => None,
        };
        let mut prom_accum = String::new();
        let mut dumps = 0usize;

        // The replay loop of `wdm_rwa::simulate`, stepped one offer at a
        // time so the fibre cut, the heal and the Prometheus dumps land
        // between arrivals. The cut goes through the replay, so a torn
        // connection restored under a new id still departs.
        let mut replay = Replay::default();
        let (mut lost, mut restored) = (0u64, 0u64);
        let cut_at = fail_link.map(|_| requests / 2);
        // The heal must land while the cut is in effect, or the restore
        // would be a guaranteed no-op — reject it as a usage error now
        // that the trace length (and so the cut point) is known.
        if let (Some(h), Some(cut)) = (restore_after, cut_at) {
            if h <= cut || h >= requests {
                return usage_error(
                    out,
                    &format!("--restore-after {h} must lie in ({cut}, {requests}) — after the midpoint cut, within the trace"),
                );
            }
        }
        let mut healed: Option<bool> = None;
        let started = std::time::Instant::now();
        for (i, req) in trace.iter().enumerate() {
            if let (Some(fl), true) = (fail_link, cut_at == Some(i)) {
                let link = wdm_graph::LinkId::new(fl);
                for (_, outcome) in replay.fail_link(&mut engine, link, policy) {
                    match outcome {
                        Some(_) => restored += 1,
                        None => lost += 1,
                    }
                }
            }
            if let (Some(fl), true) = (fail_link, restore_after == Some(i)) {
                healed = Some(engine.restore_link(wdm_graph::LinkId::new(fl)));
            }
            replay.offer(&mut engine, req, policy);
            if let (Some(prom_path), Some(interval), Some(registry)) =
                (&prom_path, metrics_interval, registry.as_ref())
            {
                if (i + 1) % interval == 0 {
                    dumps += 1;
                    let _ = write!(
                        prom_accum,
                        "# dump {dumps} after request {}\n{}",
                        i + 1,
                        registry.render_prometheus()
                    );
                    if let Err(e) =
                        wdm_obs::write_atomic(Path::new(prom_path), prom_accum.as_bytes())
                    {
                        let _ = writeln!(out, "error: cannot write {prom_path}: {e}");
                        return 1;
                    }
                }
            }
        }
        let elapsed = started.elapsed();

        let stats = replay.stats();
        let (_, _, released) = engine.totals();
        let _ = writeln!(out, "instance   : {path}");
        let _ = match &trace_path {
            Some(p) => writeln!(out, "trace      : {requests} requests replayed from {p}"),
            None => writeln!(
                out,
                "trace      : {requests} requests, load {load} erlang, mean holding {holding}, seed {seed}"
            ),
        };
        let _ = writeln!(out, "policy     : {policy}");
        if let (Some(e), Some(cut)) = (fail_link, cut_at) {
            let _ = writeln!(
                out,
                "fibre cut  : link {e} after request {cut} ({restored} restored, {lost} lost)"
            );
        }
        if let (Some(e), Some(h), Some(cleared)) = (fail_link, restore_after, healed) {
            let _ = writeln!(
                out,
                "fibre heal : link {e} after request {h} (cut cleared: {cleared})"
            );
        }
        let _ = writeln!(out, "accepted   : {}", stats.accepted);
        let _ = writeln!(out, "blocked    : {}", stats.blocked);
        let _ = writeln!(out, "released   : {released}");
        let _ = writeln!(out, "blocking   : {:.4}", stats.blocking_probability());
        let _ = writeln!(out, "peak active: {}", stats.peak_active);
        let _ = writeln!(out, "utilization: {:.4}", engine.utilization());
        let _ = writeln!(
            out,
            "elapsed    : {:.3} ms ({:.0} requests/s)",
            elapsed.as_secs_f64() * 1e3,
            requests as f64 / elapsed.as_secs_f64().max(1e-9)
        );
        if let (Some(registry), Some(metrics_path)) = (&registry, &metrics_out) {
            // The engine shares its instruments through the registry, so the
            // summary reads the same histogram the hot path filled in.
            let lat = registry.histogram("wdm_rwa_provision_latency_ns", &[]);
            let _ = writeln!(
                out,
                "req latency: p50 {:.0} ns, p90 {:.0} ns, p99 {:.0} ns (mean {:.0} ns over {} requests)",
                lat.quantile(0.5),
                lat.quantile(0.9),
                lat.quantile(0.99),
                lat.mean(),
                lat.count()
            );
            if let Err(e) = registry.write_json(Path::new(metrics_path)) {
                let _ = writeln!(out, "error: cannot write {metrics_path}: {e}");
                return 1;
            }
            let _ = writeln!(out, "metrics    : wrote {metrics_path}");
            if let Some(prom_path) = &prom_path {
                let _ = writeln!(out, "prom dumps : {dumps} published to {prom_path}");
            }
        }
        if let Some(recorder) = &recorder {
            let snapshot = recorder.snapshot();
            let _ = writeln!(
                out,
                "trace      : {} records in snapshot ({} recorded, {} dropped)",
                snapshot.records.len(),
                snapshot.recorded,
                snapshot.dropped
            );
            if let Some(p) = &trace_out {
                if let Err(e) = wdm_obs::trace::export::write_chrome_trace(Path::new(p), &snapshot)
                {
                    let _ = writeln!(out, "error: cannot write {p}: {e}");
                    return 1;
                }
                let _ = writeln!(out, "trace json : wrote {p}");
            }
            if let Some(p) = &trace_text {
                if let Err(e) = wdm_obs::trace::export::write_text_tree(Path::new(p), &snapshot) {
                    let _ = writeln!(out, "error: cannot write {p}: {e}");
                    return 1;
                }
                let _ = writeln!(out, "trace text : wrote {p}");
            }
        }
        0
    }
}
