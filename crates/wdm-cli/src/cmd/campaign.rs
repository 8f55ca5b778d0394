//! `wdm campaign` — Monte-Carlo blocking sweeps and sparse converter
//! placement over the reference WANs.

use std::fmt::Write as _;
use std::path::Path;

use wdm_campaign::{
    build_wan, converter_nodes, e18_record, place_converters, run_campaign, CampaignConfig,
    PlacerConfig,
};
use wdm_graph::topology::ReferenceTopology;
use wdm_rwa::Policy;

use crate::util::{parse_policy, usage_error};
use crate::Command;

/// The `campaign` subcommand.
pub struct Campaign;

/// Parses a comma-separated list of positive finite floats.
fn parse_f64_list(raw: &str) -> Option<Vec<f64>> {
    let values: Option<Vec<f64>> = raw.split(',').map(|v| v.trim().parse().ok()).collect();
    values.filter(|v: &Vec<f64>| !v.is_empty())
}

/// Resolves `--net` into the topologies to sweep.
fn parse_nets(raw: &str) -> Option<Vec<ReferenceTopology>> {
    match raw {
        "all" => Some(ReferenceTopology::ALL.to_vec()),
        "nsfnet" => Some(vec![ReferenceTopology::Nsfnet]),
        "arpanet" => Some(vec![ReferenceTopology::Arpanet]),
        "eon" => Some(vec![ReferenceTopology::Eon]),
        "abilene" => Some(vec![ReferenceTopology::Abilene]),
        "geant" => Some(vec![ReferenceTopology::Geant]),
        _ => None,
    }
}

impl Command for Campaign {
    fn name(&self) -> &'static str {
        "campaign"
    }

    fn summary(&self) -> &'static str {
        "Monte-Carlo blocking-vs-load sweep with converter-density and placement analysis"
    }

    fn usage(&self) -> &'static str {
        "  wdm campaign --net <nsfnet|arpanet|eon|abilene|geant|all> [--k <k>]
      [--loads <a,b,..>] [--densities <a,b,..>] [--requests <n>]
      [--replicas <r>] [--seed <s>] [--threads <t>]
      [--policy optimal|lightpath|first-fit] [--place <budget>]
      [--json <file>]
      sweeps Erlang load × converter density on the named reference
      WAN(s), driving Poisson arrivals with exponential holding times
      through the provisioning engine; reports blocking probability
      with its no-path/capacity cause split per point, and emits one
      e18 BENCH record per point (--json appends them to a file).
      --place greedily spends a budget of runtime-enabled converters
      to minimize blocking, seeded by the blocked-by-cause stats.
      Output is byte-identical for a given seed regardless of
      --threads."
    }

    fn run(&self, args: &[String], out: &mut String) -> i32 {
        let mut nets: Option<Vec<ReferenceTopology>> = None;
        let mut k = 4usize;
        let mut loads = vec![20.0, 30.0, 45.0, 60.0];
        let mut densities = vec![0.0, 0.3, 1.0];
        let mut requests = 400usize;
        let mut replicas = 3usize;
        let mut seed = 0u64;
        let mut threads = 1usize;
        let mut policy = Policy::Optimal;
        let mut place: Option<usize> = None;
        let mut json_path: Option<String> = None;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--net" => {
                    nets = match it.next().and_then(|v| parse_nets(v)) {
                        Some(n) => Some(n),
                        None => {
                            return usage_error(
                                out,
                                "bad --net (nsfnet|arpanet|eon|abilene|geant|all)",
                            )
                        }
                    }
                }
                "--k" => {
                    k = match it.next().and_then(|v| v.parse().ok()) {
                        Some(0) | None => return usage_error(out, "bad --k (want k >= 1)"),
                        Some(v) => v,
                    }
                }
                "--loads" => {
                    loads = match it.next().and_then(|v| parse_f64_list(v)) {
                        Some(l) if l.iter().all(|x| *x > 0.0 && x.is_finite()) => l,
                        _ => return usage_error(out, "bad --loads (want positive erlangs a,b,..)"),
                    }
                }
                "--densities" => {
                    densities = match it.next().and_then(|v| parse_f64_list(v)) {
                        Some(d) if d.iter().all(|x| (0.0..=1.0).contains(x)) => d,
                        _ => return usage_error(out, "bad --densities (want values in [0,1])"),
                    }
                }
                "--requests" => {
                    requests = match it.next().and_then(|v| v.parse().ok()) {
                        Some(0) | None => return usage_error(out, "bad --requests (want n >= 1)"),
                        Some(n) => n,
                    }
                }
                "--replicas" => {
                    replicas = match it.next().and_then(|v| v.parse().ok()) {
                        Some(0) | None => return usage_error(out, "bad --replicas (want r >= 1)"),
                        Some(r) => r,
                    }
                }
                "--seed" => {
                    seed = match it.next().and_then(|v| v.parse().ok()) {
                        Some(s) => s,
                        None => return usage_error(out, "bad --seed"),
                    }
                }
                "--threads" => {
                    threads = match it.next().and_then(|v| v.parse().ok()) {
                        Some(0) | None => return usage_error(out, "bad --threads (want t >= 1)"),
                        Some(t) => t,
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
                "--place" => {
                    place = match it.next().and_then(|v| v.parse().ok()) {
                        Some(0) | None => {
                            return usage_error(out, "bad --place (want budget >= 1)")
                        }
                        some => some,
                    }
                }
                "--json" => {
                    json_path = match it.next() {
                        Some(p) => Some(p.clone()),
                        None => return usage_error(out, "missing --json path"),
                    }
                }
                flag => return usage_error(out, &format!("unknown flag `{flag}`")),
            }
        }
        let Some(nets) = nets else {
            return usage_error(out, "campaign requires --net");
        };
        let cfg = CampaignConfig {
            k,
            loads,
            densities,
            requests,
            replicas,
            seed,
            threads,
            policy,
        };
        if let Err(e) = cfg.validate() {
            return usage_error(out, &e);
        }

        let mut records: Vec<String> = Vec::new();
        for topo in nets {
            let net = build_wan(topo, cfg.k, cfg.seed);
            let _ = writeln!(
                out,
                "net        : {} (n={}, m={}, k={})",
                topo.name(),
                net.node_count(),
                net.link_count(),
                cfg.k
            );
            let _ = writeln!(
                out,
                "sweep      : {} loads x {} densities, {} requests x {} replicas per point, seed {}",
                cfg.loads.len(),
                cfg.densities.len(),
                cfg.requests,
                cfg.replicas,
                cfg.seed
            );
            let _ = writeln!(out, "policy     : {}", cfg.policy);
            let results = run_campaign(&net, &cfg);
            let mut current_density = f64::NAN;
            for p in &results {
                if p.density != current_density {
                    current_density = p.density;
                    let converters = converter_nodes(&net, p.density, cfg.seed);
                    let ids: Vec<String> =
                        converters.iter().map(|v| v.index().to_string()).collect();
                    let _ = writeln!(
                        out,
                        "density {:<5}: {} converter(s){}{}",
                        p.density,
                        p.converters,
                        if ids.is_empty() { "" } else { " at " },
                        ids.join(",")
                    );
                }
                let _ = writeln!(
                    out,
                    "  load {:>6}  blocking {:.4}  (accepted {}, no-path {}, capacity {})",
                    p.load,
                    p.stats.blocking_probability(),
                    p.stats.accepted,
                    p.stats.blocked_no_path,
                    p.stats.blocked_capacity
                );
                records.push(e18_record(topo.name(), cfg.k, &cfg, p));
            }
            if let Some(budget) = place {
                let pcfg = PlacerConfig {
                    budget,
                    load: cfg.loads.last().copied().unwrap_or(60.0),
                    requests: cfg.requests,
                    replicas: cfg.replicas,
                    seed: cfg.seed,
                    policy: cfg.policy,
                };
                let placement = place_converters(&net, &pcfg);
                let ids: Vec<String> = placement
                    .chosen
                    .iter()
                    .map(|v| v.index().to_string())
                    .collect();
                let _ = writeln!(
                    out,
                    "placement  : budget {budget} at load {} -> [{}], blocking {:.4} -> {:.4}",
                    pcfg.load,
                    ids.join(","),
                    placement.baseline.blocking_probability(),
                    placement.placed.blocking_probability()
                );
                records.push(wdm_campaign::e18_placement_record(
                    topo.name(),
                    cfg.k,
                    &pcfg,
                    &placement,
                ));
            }
        }

        let _ = writeln!(out, "records    : {}", records.len());
        for r in &records {
            let _ = writeln!(out, "{}", r.trim_start());
        }
        if let Some(path) = &json_path {
            let mut body = String::from("[\n");
            body.push_str(&records.join(",\n"));
            body.push_str("\n]\n");
            if let Err(e) = std::fs::write(Path::new(path), body) {
                let _ = writeln!(out, "error: cannot write {path}: {e}");
                return 1;
            }
            let _ = writeln!(out, "json       : wrote {path}");
        }
        0
    }
}
