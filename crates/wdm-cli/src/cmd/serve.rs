//! `wdm serve` — the control-plane daemon: front the provisioning
//! engine over a TCP or unix-socket listener (see the `wdm-serve`
//! crate for the protocol).

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use wdm_rwa::{Policy, RoutingMode};
use wdm_serve::{EngineBackend, Listen, Server, ServerConfig};

use crate::util::{load, parse_policy, usage_error};
use crate::Command;

/// The `serve` subcommand.
pub struct Serve;

impl Command for Serve {
    fn name(&self) -> &'static str {
        "serve"
    }

    fn summary(&self) -> &'static str {
        "run the provisioning engine as a long-lived daemon"
    }

    fn usage(&self) -> &'static str {
        "  wdm serve <file.wdm> --listen <host:port | unix:path>
      [--policy optimal|lightpath|first-fit]
      [--sharded] [--shards <n>] [--max-conflicts <n>]
      [--max-inflight <n>] [--ready-file <path>]
      [--trace-buffer <records>] [--trace-sample <n>]
      speaks line-delimited JSON (provision/release/fail-link/batch/
      stats/trace/drain; one request per line, one reply per line) and
      answers HTTP `GET /metrics` and `GET /trace` on the same
      listener; port 0 picks a free port (printed on stdout and, with
      --ready-file, published atomically to a file); requests run one at
      a time on one engine handle, or with --sharded lock-free on one
      handle per connection, with --shards shards (0 = auto) and a
      per-request retry budget of --max-conflicts; at most
      --max-inflight requests execute at once, the rest are answered
      `overloaded`; --trace-buffer enables the in-memory flight
      recorder (records per writer segment; requests may tag a
      trace_id, GET /trace exports Chrome trace_event JSON) and
      --trace-sample keeps only blocked/contended plus the slowest n
      traces; drain with the `drain` op or SIGTERM"
    }

    fn run(&self, args: &[String], out: &mut String) -> i32 {
        let mut path: Option<&String> = None;
        let mut listen: Option<String> = None;
        let mut policy = Policy::Optimal;
        let mut sharded = false;
        let mut shards = 0usize;
        let mut max_conflicts = 64u64;
        let mut max_inflight = 64usize;
        let mut ready_file: Option<String> = None;
        let mut trace_buffer = 0usize;
        let mut trace_sample = 0usize;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--listen" => {
                    listen = match it.next() {
                        Some(addr) => Some(addr.clone()),
                        None => return usage_error(out, "missing --listen address"),
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
                "--sharded" => sharded = true,
                "--shards" => {
                    shards = match it.next().and_then(|v| v.parse().ok()) {
                        Some(n) => n,
                        None => return usage_error(out, "bad --shards (want a count, 0 = auto)"),
                    }
                }
                "--max-conflicts" => {
                    max_conflicts = match it.next().and_then(|v| v.parse().ok()) {
                        Some(0) | None => {
                            return usage_error(out, "bad --max-conflicts (want n >= 1)")
                        }
                        Some(n) => n,
                    }
                }
                "--max-inflight" => {
                    max_inflight = match it.next().and_then(|v| v.parse().ok()) {
                        Some(0) | None => {
                            return usage_error(out, "bad --max-inflight (want n >= 1)")
                        }
                        Some(n) => n,
                    }
                }
                "--ready-file" => {
                    ready_file = match it.next() {
                        Some(p) => Some(p.clone()),
                        None => return usage_error(out, "missing --ready-file path"),
                    }
                }
                "--trace-buffer" => {
                    trace_buffer = match it.next().and_then(|v| v.parse().ok()) {
                        Some(n) => n,
                        None => {
                            return usage_error(
                                out,
                                "bad --trace-buffer (want records per segment, 0 = off)",
                            )
                        }
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
            return usage_error(out, "serve takes one file");
        };
        let Some(listen) = listen else {
            return usage_error(out, "serve requires --listen");
        };
        let net = match load(path, out) {
            Ok(n) => n,
            Err(code) => return code,
        };
        let backend = if sharded {
            EngineBackend::sharded(&net, shards, max_conflicts, policy)
        } else {
            EngineBackend::single(&net, RoutingMode::Masked, policy)
        };
        let server = match Server::bind(
            &Listen::parse(&listen),
            backend,
            ServerConfig {
                max_inflight,
                trace_buffer,
                trace_sample,
            },
        ) {
            Ok(s) => s,
            Err(e) => {
                let _ = writeln!(out, "error: cannot bind {listen}: {e}");
                return 1;
            }
        };
        wdm_serve::signal::install();
        let addr = server.local_addr();
        if let Some(ready) = &ready_file {
            // Published atomically so a supervisor polling the file
            // never reads a half-written address.
            if let Err(e) = wdm_obs::write_atomic(Path::new(ready), addr.as_bytes()) {
                let _ = writeln!(out, "error: cannot write {ready}: {e}");
                return 1;
            }
        }
        // The dispatcher prints `out` only after run() returns, so the
        // readiness line must go to stdout directly — clients block on
        // it to learn the bound port.
        println!(
            "wdm serve: listening on {addr} ({} nodes, {} links)",
            net.node_count(),
            net.link_count()
        );
        let _ = std::io::stdout().flush();
        match server.serve() {
            Ok(summary) => {
                let _ = writeln!(out, "drained    : {addr}");
                let _ = writeln!(out, "connections: {}", summary.connections);
                let _ = writeln!(out, "requests   : {}", summary.requests);
                let _ = writeln!(out, "malformed  : {}", summary.malformed);
                let _ = writeln!(out, "overloaded : {}", summary.overloaded);
                0
            }
            Err(e) => {
                let _ = writeln!(out, "error: serve failed: {e}");
                1
            }
        }
    }
}
