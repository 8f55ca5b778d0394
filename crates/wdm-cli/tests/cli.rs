//! End-to-end tests of the `wdm` command dispatcher — every
//! subcommand is driven through the public [`wdm_cli::run`] entry
//! point exactly as `main` does.

use wdm_cli::run;
use wdm_core::textfmt;

fn run_args(args: &[&str]) -> (i32, String) {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = String::new();
    let code = run(&args, &mut out);
    (code, out)
}

#[test]
fn help_and_unknown_command() {
    let (code, out) = run_args(&["help"]);
    assert_eq!(code, 0);
    assert!(out.contains("USAGE"));
    let (code, out) = run_args(&["frobnicate"]);
    assert_eq!(code, 2);
    assert!(out.contains("unknown command"));
    let (code, _) = run_args(&[]);
    assert_eq!(code, 0);
}

#[test]
fn gen_to_stdout_parses_back() {
    let (code, out) = run_args(&["gen", "--topology", "abilene", "--k", "3"]);
    assert_eq!(code, 0, "{out}");
    let net = textfmt::from_text(&out).expect("generated instance parses");
    assert_eq!(net.node_count(), 11);
    assert_eq!(net.k(), 3);
}

#[test]
fn gen_parametric_topologies() {
    for (spec, nodes) in [("ring:8", 8), ("grid:2x3", 6), ("sparse:12", 12)] {
        let (code, out) = run_args(&["gen", "--topology", spec, "--k", "2"]);
        assert_eq!(code, 0, "{spec}: {out}");
        let net = textfmt::from_text(&out).expect("parses");
        assert_eq!(net.node_count(), nodes, "{spec}");
    }
}

#[test]
fn gen_rejects_bad_specs() {
    for bad in ["ring:2", "grid:0x3", "grid:3", "nope", "sparse:x"] {
        let (code, _) = run_args(&["gen", "--topology", bad, "--k", "2"]);
        assert_eq!(code, 2, "{bad} should be rejected");
    }
    let (code, _) = run_args(&["gen", "--k", "2"]);
    assert_eq!(code, 2);
    let (code, _) = run_args(&["gen", "--topology", "nsfnet"]);
    assert_eq!(code, 2);
}

#[test]
fn full_file_workflow() {
    let dir = std::env::temp_dir().join("wdm-cli-test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let file = dir.join("test.wdm");
    let file_s = file.to_str().expect("utf8").to_string();

    let (code, out) = run_args(&[
        "gen",
        "--topology",
        "nsfnet",
        "--k",
        "4",
        "--seed",
        "7",
        "-o",
        &file_s,
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("wrote"));

    let (code, out) = run_args(&["info", &file_s]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("nodes     : 14"));
    assert!(out.contains("strongly connected: true"));

    let (code, out) = run_args(&[
        "route",
        &file_s,
        "0",
        "13",
        "--alternates",
        "3",
        "--baseline",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("optimal semilightpath") || out.contains("cannot reach"));
    if out.contains("optimal semilightpath") {
        assert!(out.contains("cfz baseline"));
    }

    let (code, out) = run_args(&["route", &file_s, "0", "5", "--distributed"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("distributed:"));

    let (code, out) = run_args(&["all-pairs", &file_s]);
    assert_eq!(code, 0, "{out}");
    // Diagonal is zero.
    assert!(out.contains('0'));
    std::fs::remove_file(&file).ok();
}

#[test]
fn route_usage_errors() {
    let (code, _) = run_args(&["route", "file.wdm"]);
    assert_eq!(code, 2);
    let (code, _) = run_args(&["route", "file.wdm", "a", "b"]);
    assert_eq!(code, 2);
    let (code, out) = run_args(&["route", "/nonexistent.wdm", "0", "1"]);
    assert_eq!(code, 1);
    assert!(out.contains("cannot read"));
}

#[test]
fn export_produces_dot() {
    let dir = std::env::temp_dir().join("wdm-cli-test-export");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let file = dir.join("x.wdm");
    let file_s = file.to_str().expect("utf8").to_string();
    let (code, _) = run_args(&["gen", "--topology", "ring:5", "--k", "2", "-o", &file_s]);
    assert_eq!(code, 0);
    let (code, out) = run_args(&["export", &file_s]);
    assert_eq!(code, 0);
    assert!(out.starts_with("digraph"));
    assert!(out.contains("λ"));
    std::fs::remove_file(&file).ok();
}

#[test]
fn protect_runs_on_generated_instance() {
    let dir = std::env::temp_dir().join("wdm-cli-test-protect");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let file = dir.join("p.wdm");
    let file_s = file.to_str().expect("utf8").to_string();
    let (code, _) = run_args(&[
        "gen",
        "--topology",
        "nsfnet",
        "--k",
        "6",
        "--seed",
        "2",
        "-o",
        &file_s,
    ]);
    assert_eq!(code, 0);
    let (code, out) = run_args(&["protect", &file_s, "0", "13"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("primary") || out.contains("no disjoint pair"));
    let (code, _) = run_args(&["protect", &file_s, "0", "13", "--physical"]);
    assert_eq!(code, 0);
    std::fs::remove_file(&file).ok();
}

#[test]
fn all_pairs_parallel_flags() {
    let dir = std::env::temp_dir().join("wdm-cli-test-parallel");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let file = dir.join("ap.wdm");
    let file_s = file.to_str().expect("utf8").to_string();
    let (code, _) = run_args(&[
        "gen",
        "--topology",
        "nsfnet",
        "--k",
        "4",
        "--seed",
        "9",
        "-o",
        &file_s,
    ]);
    assert_eq!(code, 0);

    let (code, serial) = run_args(&["all-pairs", &file_s]);
    assert_eq!(code, 0, "{serial}");
    // Determinism contract: the printed matrix is byte-identical
    // however the computation is spread across threads.
    for extra in [
        vec!["--parallel"],
        vec!["--threads", "1"],
        vec!["--threads", "3"],
        vec!["--parallel", "--threads", "2"],
    ] {
        let mut args = vec!["all-pairs", file_s.as_str()];
        args.extend(extra.iter().copied());
        let (code, out) = run_args(&args);
        assert_eq!(code, 0, "{extra:?}: {out}");
        assert_eq!(out, serial, "{extra:?}");
    }

    let (code, _) = run_args(&["all-pairs", &file_s, "--threads", "0"]);
    assert_eq!(code, 2, "--threads 0 is a usage error");
    let (code, _) = run_args(&["all-pairs", &file_s, "--threads", "x"]);
    assert_eq!(code, 2);
    let (code, _) = run_args(&["all-pairs", &file_s, "--bogus"]);
    assert_eq!(code, 2);
    let (code, _) = run_args(&["all-pairs", "--parallel"]);
    assert_eq!(code, 2, "file is still required");
    std::fs::remove_file(&file).ok();
}

#[test]
fn serve_workload_reruns_byte_identical() {
    let dir = std::env::temp_dir().join("wdm-cli-test-serve");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let file = dir.join("sw.wdm");
    let file_s = file.to_str().expect("utf8").to_string();
    let (code, _) = run_args(&[
        "gen",
        "--topology",
        "nsfnet",
        "--k",
        "4",
        "--seed",
        "3",
        "-o",
        &file_s,
    ]);
    assert_eq!(code, 0);

    // A seeded trace is a pure function of its arguments: two runs
    // report byte-identical statistics (only the timing line may
    // differ), for every policy, with a cut, and with a cut and heal.
    let strip_timing = |s: &str| -> String {
        s.lines()
            .filter(|l| !l.starts_with("elapsed"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let twice = |args: &[&str]| -> String {
        let (code, first) = run_args(args);
        assert_eq!(code, 0, "{first}");
        let (code, second) = run_args(args);
        assert_eq!(code, 0, "{second}");
        assert_eq!(strip_timing(&first), strip_timing(&second), "{args:?}");
        first
    };
    let common = [
        "serve-workload",
        file_s.as_str(),
        "--requests",
        "60",
        "--load",
        "5",
        "--seed",
        "11",
    ];
    for policy in ["optimal", "lightpath", "first-fit"] {
        let mut args = common.to_vec();
        args.extend(["--policy", policy]);
        let out = twice(&args);
        assert!(
            !out.contains("mode"),
            "the engine has one routing mode: {out}"
        );
    }

    // Fibre cut halfway through the trace.
    let mut cut = common.to_vec();
    cut.extend(["--fail-link", "0"]);
    let out = twice(&cut);
    assert!(out.contains("fibre cut  : link 0 after request 30"));

    // Cut then heal: the heal reports the cleared cut.
    let mut heal = common.to_vec();
    heal.extend(["--fail-link", "0", "--restore-after", "45"]);
    let out = twice(&heal);
    assert!(out.contains("fibre cut  : link 0 after request 30"));
    assert!(out.contains("fibre heal : link 0 after request 45 (cut cleared: true)"));
    std::fs::remove_file(&file).ok();
}

#[test]
fn serve_workload_restored_connection_still_departs() {
    // One wavelength per link; 0 → 1 direct at cost 1 or around through
    // 2 at cost 10. The cut of link 0 before request 1 tears down
    // request 0 (due to depart at t = 1) and restores it on 0 → 2 → 1
    // under a new id. That restored connection must depart on time and
    // free link 1 for request 2 (0 → 2 at t = 5).
    let dir = std::env::temp_dir().join("wdm-cli-test-serve-restore");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let net = dir.join("tri.wdm");
    let trace = dir.join("tri.trace");
    std::fs::write(
        &net,
        "wdm v1\nn 3\nk 1\nlink 0 1 0:1\nlink 0 2 0:5\nlink 2 1 0:5\nlink 1 0 0:1\n",
    )
    .expect("write instance");
    std::fs::write(&trace, "0 1 0.0 1.0\n1 0 0.5 100\n0 2 5.0 100\n").expect("write trace");
    let (net_s, trace_s) = (net.to_str().expect("utf8"), trace.to_str().expect("utf8"));
    let (code, out) = run_args(&[
        "serve-workload",
        net_s,
        "--trace",
        trace_s,
        "--fail-link",
        "0",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("(1 restored, 0 lost)"), "{out}");
    for line in [
        "accepted   : 3",
        "blocked    : 0",
        "released   : 2",
        "utilization: 0.7500",
    ] {
        assert!(out.lines().any(|l| l == line), "want `{line}` in:\n{out}");
    }
    std::fs::remove_file(&net).ok();
    std::fs::remove_file(&trace).ok();
}

#[test]
fn serve_workload_cut_spares_connections_already_departed() {
    // Request 0 (0 → 1 on link 0) departs at t = 1; the cut of link 0
    // lands before request 1 at t = 2, so it finds nothing to tear down.
    let dir = std::env::temp_dir().join("wdm-cli-test-serve-departed");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let net = dir.join("tri.wdm");
    let trace = dir.join("tri.trace");
    std::fs::write(
        &net,
        "wdm v1\nn 3\nk 1\nlink 0 1 0:1\nlink 0 2 0:5\nlink 2 1 0:5\nlink 1 0 0:1\n",
    )
    .expect("write instance");
    std::fs::write(&trace, "0 1 0.0 1.0\n1 0 2.0 100\n").expect("write trace");
    let (net_s, trace_s) = (net.to_str().expect("utf8"), trace.to_str().expect("utf8"));
    let (code, out) = run_args(&[
        "serve-workload",
        net_s,
        "--trace",
        trace_s,
        "--fail-link",
        "0",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("(0 restored, 0 lost)"), "{out}");
    for line in ["accepted   : 2", "released   : 1", "utilization: 0.5000"] {
        assert!(out.lines().any(|l| l == line), "want `{line}` in:\n{out}");
    }
    std::fs::remove_file(&net).ok();
    std::fs::remove_file(&trace).ok();
}

#[test]
fn serve_workload_usage_errors() {
    let (code, _) = run_args(&["serve-workload"]);
    assert_eq!(code, 2, "file required");
    for bad in [
        vec!["serve-workload", "x.wdm", "--requests", "0"],
        vec!["serve-workload", "x.wdm", "--load", "-1"],
        vec!["serve-workload", "x.wdm", "--holding", "0"],
        vec!["serve-workload", "x.wdm", "--policy", "magic"],
        vec!["serve-workload", "x.wdm", "--mode", "psychic"],
        vec!["serve-workload", "x.wdm", "--fail-link", "x"],
        vec!["serve-workload", "x.wdm", "--restore-after", "x"],
        // A heal without a cut can never fire.
        vec!["serve-workload", "x.wdm", "--restore-after", "45"],
        vec!["serve-workload", "x.wdm", "--bogus"],
    ] {
        let (code, _) = run_args(&bad);
        assert_eq!(code, 2, "{bad:?}");
    }
    let (code, out) = run_args(&["serve-workload", "/nonexistent.wdm"]);
    assert_eq!(code, 1);
    assert!(out.contains("cannot read"));
}

#[test]
fn serve_workload_rejects_out_of_range_fail_link() {
    let dir = std::env::temp_dir().join("wdm-cli-test-serve-range");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let file = dir.join("r.wdm");
    let file_s = file.to_str().expect("utf8").to_string();
    let (code, _) = run_args(&["gen", "--topology", "ring:4", "--k", "2", "-o", &file_s]);
    assert_eq!(code, 0);
    // A link the instance doesn't have is a bad argument: usage error
    // (exit 2), like every other rejected flag value.
    let (code, out) = run_args(&["serve-workload", &file_s, "--fail-link", "999"]);
    assert_eq!(code, 2, "{out}");
    assert!(out.contains("out of range"));
    assert!(out.contains("USAGE"), "{out}");
    // A heal point at or before the midpoint cut (or past the trace)
    // could never clear the cut — rejected once the trace length is
    // known.
    for heal_at in ["10", "100", "999"] {
        let (code, out) = run_args(&[
            "serve-workload",
            &file_s,
            "--requests",
            "60",
            "--fail-link",
            "0",
            "--restore-after",
            heal_at,
        ]);
        assert_eq!(code, 2, "heal at {heal_at}: {out}");
        assert!(out.contains("must lie in"), "{out}");
    }
    std::fs::remove_file(&file).ok();
}

#[test]
fn info_on_missing_file() {
    let (code, out) = run_args(&["info", "/nonexistent.wdm"]);
    assert_eq!(code, 1);
    assert!(out.contains("cannot read"));
}

/// Sum of every counter series named `name` (optionally restricted
/// to one label pair) in a parsed metrics snapshot.
fn counter_sum(snap: &wdm_obs::json::Value, name: &str, label: Option<(&str, &str)>) -> u64 {
    snap.get("counters")
        .and_then(|v| v.as_array())
        .expect("counters array")
        .iter()
        .filter(|c| c.get("name").and_then(|v| v.as_str()) == Some(name))
        .filter(|c| match label {
            None => true,
            Some((k, want)) => {
                c.get("labels")
                    .and_then(|l| l.get(k))
                    .and_then(|v| v.as_str())
                    == Some(want)
            }
        })
        .map(|c| c.get("value").and_then(|v| v.as_u64()).expect("value"))
        .sum()
}

fn histogram_count(snap: &wdm_obs::json::Value, name: &str) -> u64 {
    snap.get("histograms")
        .and_then(|v| v.as_array())
        .expect("histograms array")
        .iter()
        .find(|h| h.get("name").and_then(|v| v.as_str()) == Some(name))
        .and_then(|h| h.get("count"))
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("histogram {name} missing"))
}

#[test]
fn serve_workload_metrics_snapshot_is_consistent() {
    let dir = std::env::temp_dir().join("wdm-cli-test-metrics");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let file = dir.join("m.wdm");
    let file_s = file.to_str().expect("utf8").to_string();
    let snap_path = dir.join("m.json");
    let snap_s = snap_path.to_str().expect("utf8").to_string();
    let (code, _) = run_args(&[
        "gen",
        "--topology",
        "nsfnet",
        "--k",
        "4",
        "--seed",
        "3",
        "-o",
        &file_s,
    ]);
    assert_eq!(code, 0);

    let (code, out) = run_args(&[
        "serve-workload",
        &file_s,
        "--requests",
        "60",
        "--load",
        "5",
        "--seed",
        "11",
        "--metrics-out",
        &snap_s,
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("req latency: p50"), "{out}");
    assert!(
        out.contains(&format!("metrics    : wrote {snap_s}")),
        "{out}"
    );

    let text = std::fs::read_to_string(&snap_path).expect("snapshot written");
    let snap = wdm_obs::json::parse(&text).expect("snapshot parses");

    // offered == accepted + blocked, and the latency histogram saw
    // every request (no --fail-link, so no extra restoration calls).
    let offered = counter_sum(&snap, "wdm_rwa_requests_total", None);
    assert_eq!(offered, 60);
    let accepted = counter_sum(&snap, "wdm_rwa_accepted_total", None);
    let blocked = counter_sum(&snap, "wdm_rwa_blocked_total", None);
    assert_eq!(offered, accepted + blocked, "{text}");
    assert_eq!(
        blocked,
        counter_sum(&snap, "wdm_rwa_blocked_total", Some(("cause", "no_path")))
            + counter_sum(&snap, "wdm_rwa_blocked_total", Some(("cause", "capacity")))
    );
    assert_eq!(histogram_count(&snap, "wdm_rwa_provision_latency_ns"), 60);
    // The stdout report and the registry agree.
    assert!(out.contains(&format!("accepted   : {accepted}")), "{out}");
    assert!(out.contains(&format!("blocked    : {blocked}")), "{out}");
    // Search kernels ran and reported.
    assert!(counter_sum(&snap, "wdm_core_search_settled_total", None) > 0);
    assert!(counter_sum(&snap, "wdm_core_search_pushes_total", None) > 0);

    std::fs::remove_file(&file).ok();
    std::fs::remove_file(&snap_path).ok();
}

#[test]
fn serve_workload_metrics_interval_publishes_prometheus_dumps() {
    let dir = std::env::temp_dir().join("wdm-cli-test-metrics-prom");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let file = dir.join("p.wdm");
    let file_s = file.to_str().expect("utf8").to_string();
    let snap_path = dir.join("p.json");
    let snap_s = snap_path.to_str().expect("utf8").to_string();
    let (code, _) = run_args(&["gen", "--topology", "ring:6", "--k", "3", "-o", &file_s]);
    assert_eq!(code, 0);

    let (code, out) = run_args(&[
        "serve-workload",
        &file_s,
        "--requests",
        "60",
        "--seed",
        "4",
        "--metrics-out",
        &snap_s,
        "--metrics-interval",
        "20",
    ]);
    assert_eq!(code, 0, "{out}");
    let prom_path = format!("{snap_s}.prom");
    assert!(
        out.contains(&format!("prom dumps : 3 published to {prom_path}")),
        "{out}"
    );
    let prom = std::fs::read_to_string(&prom_path).expect("prom file written");
    assert_eq!(prom.matches("# dump ").count(), 3, "{prom}");
    assert!(prom.contains("# dump 1 after request 20"), "{prom}");
    assert!(prom.contains("# dump 3 after request 60"), "{prom}");
    assert!(
        prom.contains("# TYPE wdm_rwa_requests_total counter"),
        "{prom}"
    );
    assert!(prom.contains("wdm_rwa_requests_total 60"), "{prom}");
    assert!(
        prom.contains("wdm_rwa_provision_latency_ns_bucket"),
        "{prom}"
    );

    std::fs::remove_file(&file).ok();
    std::fs::remove_file(&snap_path).ok();
    std::fs::remove_file(&prom_path).ok();
}

#[test]
fn serve_workload_metrics_usage_errors() {
    for bad in [
        vec!["serve-workload", "x.wdm", "--metrics-interval", "10"],
        vec!["serve-workload", "x.wdm", "--metrics-out"],
        vec![
            "serve-workload",
            "x.wdm",
            "--metrics-out",
            "m.json",
            "--metrics-interval",
            "0",
        ],
        vec![
            "serve-workload",
            "x.wdm",
            "--metrics-out",
            "m.json",
            "--metrics-interval",
            "x",
        ],
    ] {
        let (code, _) = run_args(&bad);
        assert_eq!(code, 2, "{bad:?}");
    }
}

#[test]
fn route_metrics_out_writes_snapshot() {
    let dir = std::env::temp_dir().join("wdm-cli-test-route-metrics");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let file = dir.join("r.wdm");
    let file_s = file.to_str().expect("utf8").to_string();
    let snap_path = dir.join("r.json");
    let snap_s = snap_path.to_str().expect("utf8").to_string();
    let (code, _) = run_args(&[
        "gen",
        "--topology",
        "nsfnet",
        "--k",
        "4",
        "--seed",
        "7",
        "-o",
        &file_s,
    ]);
    assert_eq!(code, 0);

    let (code, out) = run_args(&["route", &file_s, "0", "13", "--metrics-out", &snap_s]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains(&format!("metrics: wrote {snap_s}")), "{out}");
    let text = std::fs::read_to_string(&snap_path).expect("snapshot written");
    let snap = wdm_obs::json::parse(&text).expect("snapshot parses");
    assert_eq!(histogram_count(&snap, "wdm_cli_route_latency_ns"), 1);
    assert!(counter_sum(&snap, "wdm_core_search_settled_total", None) > 0);
    let nodes = snap
        .get("gauges")
        .and_then(|v| v.as_array())
        .expect("gauges")
        .iter()
        .find(|g| g.get("name").and_then(|v| v.as_str()) == Some("wdm_core_search_graph_nodes"))
        .and_then(|g| g.get("value"))
        .and_then(|v| v.as_f64())
        .expect("search graph node gauge");
    assert!(nodes > 0.0, "{text}");

    let (code, _) = run_args(&["route", &file_s, "0", "13", "--metrics-out"]);
    assert_eq!(code, 2, "missing path is a usage error");

    std::fs::remove_file(&file).ok();
    std::fs::remove_file(&snap_path).ok();
}

#[test]
fn trace_exports_round_trip_the_validator() {
    let dir = std::env::temp_dir().join("wdm-cli-test-trace-out");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let file = dir.join("t.wdm");
    let file_s = file.to_str().expect("utf8").to_string();
    let (code, _) = run_args(&[
        "gen",
        "--topology",
        "nsfnet",
        "--k",
        "4",
        "--seed",
        "9",
        "-o",
        &file_s,
    ]);
    assert_eq!(code, 0);

    // serve-workload with all three trace knobs.
    let json_path = dir.join("w.trace.json");
    let json_s = json_path.to_str().expect("utf8").to_string();
    let text_path = dir.join("w.trace.txt");
    let text_s = text_path.to_str().expect("utf8").to_string();
    let (code, out) = run_args(&[
        "serve-workload",
        &file_s,
        "--requests",
        "60",
        "--seed",
        "3",
        "--trace-out",
        &json_s,
        "--trace-text",
        &text_s,
        "--trace-sample",
        "10",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(
        out.contains(&format!("trace json : wrote {json_s}")),
        "{out}"
    );
    assert!(
        out.contains(&format!("trace text : wrote {text_s}")),
        "{out}"
    );

    // The exported JSON round-trips the in-tree validator via trace-check.
    let (code, out) = run_args(&["trace-check", &json_s]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("events across"), "{out}");
    // The text tree is non-empty and mentions the root span label.
    let tree = std::fs::read_to_string(&text_path).expect("tree written");
    assert!(tree.contains("provision"), "{tree}");

    // route --trace-out produces a single-request trace.
    let route_path = dir.join("r.trace.json");
    let route_s = route_path.to_str().expect("utf8").to_string();
    let (code, out) = run_args(&["route", &file_s, "0", "13", "--trace-out", &route_s]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains(&format!("trace  : wrote {route_s}")), "{out}");
    let (code, out) = run_args(&["trace-check", &route_s]);
    assert_eq!(code, 0, "{out}");

    // Expecting an id that was never recorded fails loudly.
    let (code, out) = run_args(&["trace-check", &route_s, "--expect-trace-id", "999999"]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("missing"), "{out}");

    // Garbage input is a runtime error, not a panic.
    let bogus = dir.join("bogus.json");
    std::fs::write(&bogus, b"{\"nope\":true}").expect("write");
    let (code, out) = run_args(&["trace-check", bogus.to_str().expect("utf8")]);
    assert_eq!(code, 1, "{out}");

    // --trace-sample without an export target is a usage error.
    let (code, _) = run_args(&["serve-workload", &file_s, "--trace-sample", "5"]);
    assert_eq!(code, 2);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_per_command_shows_usage() {
    let (code, out) = run_args(&["help", "serve"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("--listen"), "{out}");
    assert!(out.contains("drain"), "{out}");
    let (code, out) = run_args(&["help", "frobnicate"]);
    assert_eq!(code, 2);
    assert!(out.contains("unknown command"));
    // The top-level usage lists every registered command.
    let (_, out) = run_args(&["help"]);
    for name in [
        "gen",
        "info",
        "route",
        "all-pairs",
        "protect",
        "serve-workload",
        "serve",
        "trace-check",
        "export",
    ] {
        assert!(
            out.contains(&format!("wdm {name}")),
            "{name} missing:\n{out}"
        );
    }
}

#[test]
fn serve_usage_errors() {
    let dir = std::env::temp_dir().join("wdm-cli-test-serve-daemon");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let file = dir.join("d.wdm");
    let file_s = file.to_str().expect("utf8").to_string();
    let (code, _) = run_args(&["gen", "--topology", "ring:4", "--k", "2", "-o", &file_s]);
    assert_eq!(code, 0);

    for bad in [
        vec!["serve"],
        vec!["serve", file_s.as_str()],
        vec!["serve", file_s.as_str(), "--listen"],
        vec![
            "serve",
            file_s.as_str(),
            "--listen",
            "127.0.0.1:0",
            "--policy",
            "magic",
        ],
        vec![
            "serve",
            file_s.as_str(),
            "--listen",
            "127.0.0.1:0",
            "--mode",
            "psychic",
        ],
        vec![
            "serve",
            file_s.as_str(),
            "--listen",
            "127.0.0.1:0",
            "--max-inflight",
            "0",
        ],
        vec![
            "serve",
            file_s.as_str(),
            "--listen",
            "127.0.0.1:0",
            "--max-conflicts",
            "0",
        ],
        vec![
            "serve",
            file_s.as_str(),
            "--listen",
            "127.0.0.1:0",
            "--shards",
            "x",
        ],
        vec![
            "serve",
            file_s.as_str(),
            "--listen",
            "127.0.0.1:0",
            "--bogus",
        ],
        // The engine has one routing mode; --mode is gone.
        vec![
            "serve",
            file_s.as_str(),
            "--listen",
            "127.0.0.1:0",
            "--mode",
            "masked",
        ],
    ] {
        let (code, out) = run_args(&bad);
        assert_eq!(code, 2, "{bad:?}: {out}");
        assert!(out.contains("USAGE"), "{bad:?}: {out}");
    }

    let (code, out) = run_args(&["serve", "/nonexistent.wdm", "--listen", "127.0.0.1:0"]);
    assert_eq!(code, 1);
    assert!(out.contains("cannot read"));
    std::fs::remove_file(&file).ok();
}

#[test]
fn campaign_small_sweep_is_thread_invariant() {
    let base = [
        "campaign",
        "--net",
        "nsfnet",
        "--seed",
        "42",
        "--loads",
        "30,45",
        "--densities",
        "0,0.5",
        "--requests",
        "60",
        "--replicas",
        "2",
        "--place",
        "1",
    ];
    let mut solo: Vec<&str> = base.to_vec();
    solo.extend(["--threads", "1"]);
    let mut wide: Vec<&str> = base.to_vec();
    wide.extend(["--threads", "4"]);
    let (code_a, out_a) = run_args(&solo);
    let (code_b, out_b) = run_args(&wide);
    assert_eq!(code_a, 0, "{out_a}");
    assert_eq!(code_b, 0, "{out_b}");
    // The report carries no wall-clock, so thread count must not change
    // a single byte of it.
    assert_eq!(out_a, out_b);
    assert!(out_a.contains("net        : NSFNET-14"));
    assert!(out_a.contains("\"experiment\": \"e18_blocking_campaign\""));
    assert!(out_a.contains("\"experiment\": \"e18_converter_placement\""));
    assert!(out_a.contains("placement  : budget 1"));
}

#[test]
fn campaign_usage_errors() {
    for bad in [
        vec!["campaign"],
        vec!["campaign", "--net", "fddi"],
        vec!["campaign", "--net", "nsfnet", "--k", "0"],
        vec!["campaign", "--net", "nsfnet", "--loads", "0,-3"],
        vec!["campaign", "--net", "nsfnet", "--densities", "1.5"],
        vec!["campaign", "--net", "nsfnet", "--requests", "0"],
        vec!["campaign", "--net", "nsfnet", "--threads", "0"],
        vec!["campaign", "--net", "nsfnet", "--policy", "psychic"],
        vec!["campaign", "--net", "nsfnet", "--place", "0"],
        vec!["campaign", "--net", "nsfnet", "--frob"],
    ] {
        let (code, out) = run_args(&bad);
        assert_eq!(code, 2, "{bad:?}: {out}");
        assert!(out.contains("USAGE"), "{bad:?}: {out}");
    }
}
