//! End-to-end daemon tests over real loopback sockets.
//!
//! The load-bearing property is **offline replayability**: a recorded
//! multi-connection session, sorted by the `seq` numbers the daemon
//! assigned under the engine lock, replayed through a fresh offline
//! [`EngineBackend`], must reproduce the daemon's reply bytes exactly.
//! Around that: typed errors (malformed frames, out-of-range nodes and
//! links), admission control, mid-request disconnects, drain-while-busy,
//! the HTTP `/metrics` branch, and a gated ~1M-request soak.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wdm_core::instance::{random_network, Availability, ConversionSpec, InstanceConfig};
use wdm_core::WdmNetwork;
use wdm_graph::topology;
use wdm_obs::json;
use wdm_obs::trace::{FlightRecorder, RootVerdict, TraceEventKind};
use wdm_rwa::{Policy, RaceInjection, RoutingMode};
use wdm_serve::{EngineBackend, Listen, ServeSummary, Server, ServerConfig};

fn instance(seed: u64, n: usize, k: usize) -> WdmNetwork {
    let mut rng = SmallRng::seed_from_u64(seed);
    let graph = topology::random_sparse(n, n / 2, 4, &mut rng).expect("feasible");
    random_network(
        graph,
        &InstanceConfig {
            k,
            availability: Availability::Probability(0.9),
            link_cost: (1, 50),
            conversion: ConversionSpec::Uniform { lo: 1, hi: 4 },
        },
        &mut rng,
    )
    .expect("valid")
}

/// Binds a daemon on a free loopback port and runs its accept loop on a
/// background thread.
fn start(
    backend: EngineBackend,
    config: ServerConfig,
) -> (
    Arc<Server>,
    String,
    thread::JoinHandle<std::io::Result<ServeSummary>>,
) {
    let server = Arc::new(
        Server::bind(&Listen::parse("127.0.0.1:0"), backend, config).expect("bind loopback"),
    );
    let addr = server.local_addr();
    let runner = Arc::clone(&server);
    let handle = thread::spawn(move || runner.serve());
    (server, addr, handle)
}

/// One line-delimited JSON client connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client {
            writer: stream,
            reader,
        }
    }

    /// Sends one request line and reads the one reply line (without the
    /// trailing newline).
    fn roundtrip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv().expect("reply line")
    }

    // One write per frame: a separate 1-byte newline write after the line
    // would sit in Nagle's buffer waiting out the server's delayed ACK
    // (~40 ms per request on loopback).
    fn send(&mut self, line: &str) {
        let mut frame = Vec::with_capacity(line.len() + 1);
        frame.extend_from_slice(line.as_bytes());
        frame.push(b'\n');
        self.writer.write_all(&frame).expect("send");
    }

    /// Reads one reply line; `None` once the server closed the
    /// connection.
    fn recv(&mut self) -> Option<String> {
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => None,
            Ok(_) => Some(reply.trim_end().to_string()),
            Err(e) => panic!("recv failed: {e}"),
        }
    }
}

fn seq_of(reply: &str) -> u64 {
    json::parse(reply)
        .expect("reply parses")
        .get("seq")
        .and_then(|v| v.as_u64())
        .expect("reply has seq")
}

#[test]
fn multi_client_session_replays_byte_identical_offline() {
    let net = instance(42, 24, 4);
    let nodes = net.node_count();
    let links = net.link_count();
    let backend = EngineBackend::single(&net, RoutingMode::Masked, Policy::Optimal);
    let (server, addr, handle) = start(backend, ServerConfig::default());

    let mut joins = Vec::new();
    for client_id in 0..4u64 {
        let addr = addr.clone();
        joins.push(thread::spawn(move || {
            let mut rng = SmallRng::seed_from_u64(1000 + client_id);
            let mut client = Client::connect(&addr);
            let mut session: Vec<(String, String)> = Vec::new();
            let mut live: Vec<u64> = Vec::new();
            for i in 0..80 {
                let line = match rng.gen_range(0..10u32) {
                    0..=5 => {
                        let s = rng.gen_range(0..nodes);
                        let t = rng.gen_range(0..nodes);
                        format!(r#"{{"op":"provision","s":{s},"t":{t}}}"#)
                    }
                    6..=7 if !live.is_empty() => {
                        let id = live.swap_remove(rng.gen_range(0..live.len()));
                        format!(r#"{{"op":"release","id":{id}}}"#)
                    }
                    8 if i % 37 == 0 => {
                        let link = rng.gen_range(0..links);
                        format!(r#"{{"op":"fail-link","link":{link}}}"#)
                    }
                    _ => r#"{"op":"stats"}"#.to_string(),
                };
                let reply = client.roundtrip(&line);
                let parsed = json::parse(&reply).expect("reply parses");
                if parsed.get("op").and_then(|v| v.as_str()) == Some("provision") {
                    if let Some(id) = parsed.get("id").and_then(|v| v.as_u64()) {
                        live.push(id);
                    }
                }
                session.push((line, reply));
            }
            session
        }));
    }
    let mut recorded: Vec<(String, String)> = Vec::new();
    for join in joins {
        recorded.extend(join.join().expect("client thread"));
    }
    server.request_drain();
    let summary = handle.join().expect("server thread").expect("serve");
    assert_eq!(summary.connections, 4);
    assert_eq!(summary.requests, recorded.len() as u64);
    assert_eq!(summary.malformed, 0);
    assert_eq!(summary.overloaded, 0);

    // seq numbers are the serialized engine history: contiguous from 1,
    // no duplicates, one per request.
    recorded.sort_by_key(|(_, reply)| seq_of(reply));
    for (i, (_, reply)) in recorded.iter().enumerate() {
        assert_eq!(seq_of(reply), i as u64 + 1, "seq gap at {reply}");
    }

    // Replaying the sorted session through a fresh offline backend
    // reproduces every reply byte-for-byte.
    let offline = EngineBackend::single(&net, RoutingMode::Masked, Policy::Optimal);
    let mut ctx = offline.new_ctx();
    for (line, expected) in &recorded {
        let replayed = offline.execute_line(&mut ctx, line);
        assert_eq!(&replayed, expected, "replay diverged on {line}");
    }
}

#[test]
fn malformed_frame_gets_typed_reply_and_close() {
    let net = instance(7, 12, 3);
    let backend = EngineBackend::single(&net, RoutingMode::Masked, Policy::Optimal);
    let (server, addr, handle) = start(backend, ServerConfig::default());

    let mut client = Client::connect(&addr);
    let reply = client.roundtrip("this is not json");
    assert!(reply.contains(r#""error":"malformed""#), "{reply}");
    assert!(reply.contains("invalid JSON"), "{reply}");
    // The stream is desynced; the server closes it...
    assert_eq!(client.recv(), None);

    // ...but keeps serving new connections.
    let mut next = Client::connect(&addr);
    let reply = next.roundtrip(r#"{"op":"stats"}"#);
    assert!(reply.contains(r#""ok":true"#), "{reply}");

    // A well-formed frame with a missing field is malformed too.
    let mut third = Client::connect(&addr);
    let reply = third.roundtrip(r#"{"op":"provision","s":0}"#);
    assert!(reply.contains(r#""error":"malformed""#), "{reply}");
    assert!(reply.contains('t'), "{reply}");

    server.request_drain();
    let summary = handle.join().expect("join").expect("serve");
    assert_eq!(summary.malformed, 2);
}

#[test]
fn mid_request_disconnect_does_not_poison_the_daemon() {
    let net = instance(9, 12, 3);
    let backend = EngineBackend::single(&net, RoutingMode::Masked, Policy::Optimal);
    let (server, addr, handle) = start(backend, ServerConfig::default());

    // Half a frame, then a hard disconnect.
    {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.write_all(br#"{"op":"prov"#).expect("partial write");
    }
    // A full frame then disconnect without reading the reply.
    {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .write_all(b"{\"op\":\"provision\",\"s\":0,\"t\":1}\n")
            .expect("write");
    }

    let mut client = Client::connect(&addr);
    let reply = client.roundtrip(r#"{"op":"stats"}"#);
    assert!(reply.contains(r#""ok":true"#), "{reply}");

    server.request_drain();
    let summary = handle.join().expect("join").expect("serve");
    assert_eq!(summary.connections, 3);
    assert_eq!(summary.malformed, 0);
}

#[test]
fn out_of_range_nodes_and_links_get_typed_errors() {
    let net = instance(11, 10, 3);
    let nodes = net.node_count();
    let links = net.link_count();
    let backend = EngineBackend::single(&net, RoutingMode::Masked, Policy::Optimal);
    let (server, addr, handle) = start(backend, ServerConfig::default());

    let mut client = Client::connect(&addr);
    // In u32 range but not a node of this network.
    let reply = client.roundtrip(&format!(r#"{{"op":"provision","s":{nodes},"t":0}}"#));
    assert!(reply.contains(r#""error":"node_out_of_range""#), "{reply}");
    assert!(reply.contains(&format!(r#""node":{nodes}"#)), "{reply}");
    // Far beyond u32: must be a typed reply, not a worker panic.
    let reply = client.roundtrip(r#"{"op":"provision","s":0,"t":1099511627776}"#);
    assert!(reply.contains(r#""error":"node_out_of_range""#), "{reply}");

    // A fibre cut on a link the instance doesn't have.
    let reply = client.roundtrip(r#"{"op":"fail-link","link":9999}"#);
    assert!(reply.contains(r#""error":"link_out_of_range""#), "{reply}");
    assert!(reply.contains(r#""op":"fail-link""#), "{reply}");
    assert!(reply.contains(&format!(r#""links":{links}"#)), "{reply}");

    // Repairing it is out of range the same way, under its own op name.
    let reply = client.roundtrip(r#"{"op":"restore-link","link":9999}"#);
    assert!(reply.contains(r#""error":"link_out_of_range""#), "{reply}");
    assert!(reply.contains(r#""op":"restore-link""#), "{reply}");

    // Restoring a healthy in-range link is a reported no-op, and a
    // cut/restore pair round-trips to restored:true.
    let reply = client.roundtrip(r#"{"op":"restore-link","link":0}"#);
    assert!(
        reply.contains(r#""ok":true,"op":"restore-link","seq":"#)
            && reply.contains(r#""restored":false"#),
        "{reply}"
    );
    let reply = client.roundtrip(r#"{"op":"fail-link","link":0}"#);
    assert!(reply.contains(r#""ok":true,"op":"fail-link""#), "{reply}");
    let reply = client.roundtrip(r#"{"op":"restore-link","link":0}"#);
    assert!(reply.contains(r#""restored":true"#), "{reply}");
    let reply = client.roundtrip(r#"{"op":"restore-link","link":0}"#);
    assert!(reply.contains(r#""restored":false"#), "{reply}");

    // Batches answer bad elements typed and still commit the rest.
    let reply = client.roundtrip(&format!(
        r#"{{"op":"batch","pairs":[[0,1],[{nodes},1],[1099511627776,2]]}}"#
    ));
    assert!(reply.contains(r#""op":"batch""#), "{reply}");
    assert!(reply.contains(r#""size":3"#), "{reply}");
    assert_eq!(reply.matches("node_out_of_range").count(), 2, "{reply}");

    // None of those were fatal: the connection still serves.
    let reply = client.roundtrip(r#"{"op":"stats"}"#);
    assert!(reply.contains(r#""ok":true"#), "{reply}");

    server.request_drain();
    handle.join().expect("join").expect("serve");
}

#[test]
fn release_of_unknown_connection_is_typed() {
    let net = instance(13, 10, 3);
    let backend = EngineBackend::single(&net, RoutingMode::Masked, Policy::Optimal);
    let (server, addr, handle) = start(backend, ServerConfig::default());

    let mut client = Client::connect(&addr);
    let reply = client.roundtrip(r#"{"op":"release","id":424242}"#);
    assert!(reply.contains(r#""error":"unknown_connection""#), "{reply}");
    assert!(reply.contains(r#""id":424242"#), "{reply}");

    server.request_drain();
    handle.join().expect("join").expect("serve");
}

#[test]
fn admission_control_rejects_overloaded_requests() {
    let net = instance(17, 10, 3);
    let backend = EngineBackend::single(&net, RoutingMode::Masked, Policy::Optimal);
    // A zero budget makes every engine-touching request overloaded —
    // deterministically, without having to race real in-flight work.
    let (server, addr, handle) = start(
        backend,
        ServerConfig {
            max_inflight: 0,
            ..ServerConfig::default()
        },
    );

    let mut client = Client::connect(&addr);
    for line in [r#"{"op":"provision","s":0,"t":1}"#, r#"{"op":"stats"}"#] {
        let reply = client.roundtrip(line);
        assert_eq!(reply, r#"{"ok":false,"error":"overloaded"}"#);
    }
    // Rejection is per-request, not per-connection: drain still works
    // on the same stream (and bypasses admission — it must always be
    // possible to shut the daemon down).
    let reply = client.roundtrip(r#"{"op":"drain"}"#);
    assert_eq!(reply, r#"{"ok":true,"op":"drain"}"#);

    let summary = handle.join().expect("join").expect("serve");
    assert_eq!(summary.overloaded, 2);
    assert_eq!(summary.requests, 1); // the drain
    drop(server);
}

#[test]
fn drain_while_busy_answers_inflight_then_exits() {
    let net = instance(19, 16, 4);
    let backend = EngineBackend::single(&net, RoutingMode::Masked, Policy::Optimal);
    let (server, addr, handle) = start(backend, ServerConfig::default());

    // A busy client mid-stream...
    let mut busy = Client::connect(&addr);
    for i in 0..10 {
        let reply = busy.roundtrip(&format!(r#"{{"op":"provision","s":{},"t":{}}}"#, i % 4, 8));
        assert!(reply.contains(r#""seq""#), "{reply}");
    }
    // ...while another connection drains the daemon.
    let mut drainer = Client::connect(&addr);
    let ack = drainer.roundtrip(r#"{"op":"drain"}"#);
    assert_eq!(ack, r#"{"ok":true,"op":"drain"}"#);

    let summary = handle.join().expect("join").expect("serve");
    assert_eq!(summary.connections, 2);
    assert_eq!(summary.requests, 11);

    // Dropping the server closes the listener; a new client must be
    // refused, or at best reach a dead socket that answers nothing.
    drop(server);
    if let Ok(mut stream) = TcpStream::connect(&addr) {
        let _ = stream.write_all(b"{\"op\":\"stats\"}\n");
        let mut buf = Vec::new();
        let n = stream.read_to_end(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "drained daemon must not answer new requests");
    }
}

#[test]
fn http_metrics_scrape_renders_live_registry() {
    let net = instance(23, 12, 3);
    let backend = EngineBackend::single(&net, RoutingMode::Masked, Policy::Optimal);
    let (server, addr, handle) = start(backend, ServerConfig::default());

    let mut client = Client::connect(&addr);
    for _ in 0..3 {
        client.roundtrip(r#"{"op":"provision","s":0,"t":5}"#);
    }
    client.roundtrip(r#"{"op":"stats"}"#);

    let scrape = |path: &str| {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: wdm\r\n\r\n").as_bytes())
            .expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        response
    };

    let response = scrape("/metrics");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("Content-Length:"), "{response}");
    // Served from the live in-memory registry: the engine's own
    // instruments and the daemon's request counters are both present.
    assert!(
        response.contains("# TYPE wdm_rwa_requests_total counter"),
        "{response}"
    );
    assert!(
        response.contains(r#"wdm_serve_requests_total{op="provision"} 3"#),
        "{response}"
    );
    assert!(
        response.contains(r#"wdm_serve_requests_total{op="stats"} 1"#),
        "{response}"
    );

    let response = scrape("/nope");
    assert!(response.starts_with("HTTP/1.1 404"), "{response}");

    server.request_drain();
    handle.join().expect("join").expect("serve");
}

#[test]
fn sharded_retry_exhaustion_answers_contended() {
    let net = instance(29, 12, 3);
    // Every validation fails, so any budget is exhausted immediately —
    // the deterministic stand-in for pathological contention.
    let backend = EngineBackend::sharded_with_race(
        &net,
        2,
        3,
        Policy::Optimal,
        RaceInjection::ForceValidationConflict,
    );
    let (server, addr, handle) = start(backend, ServerConfig::default());

    let mut client = Client::connect(&addr);
    let reply = client.roundtrip(r#"{"op":"provision","s":0,"t":5}"#);
    assert!(reply.contains(r#""error":"contended""#), "{reply}");
    assert!(reply.contains(r#""conflicts":3"#), "{reply}");
    // Undecided, not blocked: totals stay untouched.
    let stats = client.roundtrip(r#"{"op":"stats"}"#);
    assert!(stats.contains(r#""accepted":0,"blocked":0"#), "{stats}");

    server.request_drain();
    handle.join().expect("join").expect("serve");
}

#[test]
fn sharded_backend_serves_provision_release_and_stats() {
    let net = instance(31, 16, 4);
    let backend = EngineBackend::sharded(&net, 0, 64, Policy::Optimal);
    let (server, addr, handle) = start(backend, ServerConfig::default());

    let mut client = Client::connect(&addr);
    let reply = client.roundtrip(r#"{"op":"provision","s":0,"t":7}"#);
    let parsed = json::parse(&reply).expect("parses");
    if let Some(id) = parsed.get("id").and_then(|v| v.as_u64()) {
        let reply = client.roundtrip(&format!(r#"{{"op":"release","id":{id}}}"#));
        assert!(reply.contains(r#""ok":true"#), "{reply}");
    }
    let stats = client.roundtrip(r#"{"op":"stats"}"#);
    assert!(stats.contains(r#""conflicts":"#), "{stats}");

    server.request_drain();
    handle.join().expect("join").expect("serve");
}

#[test]
fn sharded_metrics_scrape_carries_engine_series() {
    let net = instance(33, 12, 3);
    let backend = EngineBackend::sharded(&net, 0, 64, Policy::Optimal);
    let (server, addr, handle) = start(backend, ServerConfig::default());

    let mut client = Client::connect(&addr);
    // s == t carries nothing: a decided, topology-blocked request.
    let reply = client.roundtrip(r#"{"op":"provision","s":2,"t":2}"#);
    assert!(reply.contains(r#""cause":"no_path""#), "{reply}");
    let metrics = http_get(&addr, "/metrics");
    assert!(
        metrics.contains("\nwdm_rwa_requests_total 1\n"),
        "{metrics}"
    );
    assert!(
        metrics.contains("\nwdm_rwa_blocked_total{cause=\"no_path\"} 1\n"),
        "{metrics}"
    );
    assert!(
        metrics.contains("wdm_core_search_settled_total"),
        "{metrics}"
    );

    server.request_drain();
    handle.join().expect("join").expect("serve");
}

/// The records of `kind` under wire trace `id` in `recorder`.
fn roots_of(
    recorder: &FlightRecorder,
    id: u64,
    kind: TraceEventKind,
) -> Vec<wdm_obs::trace::TraceRecord> {
    recorder
        .snapshot()
        .records
        .into_iter()
        .filter(|r| r.trace_id == id && r.kind == kind && r.is_span())
        .collect()
}

#[test]
fn sharded_traced_release_records_root_under_wire_id() {
    let net = instance(35, 12, 3);
    let backend = EngineBackend::sharded(&net, 0, 64, Policy::Optimal);
    let recorder = FlightRecorder::new(2, 1024);
    backend.attach_tracer(&recorder);
    let mut ctx = backend.new_ctx();
    let reply = backend.execute_line(&mut ctx, r#"{"op":"provision","s":0,"t":5}"#);
    let id = json::parse(&reply)
        .expect("parses")
        .get("id")
        .and_then(|v| v.as_u64())
        .expect("free network routes 0 -> 5");
    let reply = backend.execute_line(
        &mut ctx,
        &format!(r#"{{"op":"release","id":{id},"trace_id":9003}}"#),
    );
    assert!(reply.starts_with(r#"{"ok":true,"op":"release""#), "{reply}");
    let roots = roots_of(&recorder, 9003, TraceEventKind::Release);
    assert_eq!(roots.len(), 1, "one release root under the wire id");
    assert_eq!(roots[0].flags, RootVerdict::Ok.code());
    assert_eq!(roots[0].a, id);
}

#[test]
fn traced_fail_link_and_restore_link_record_roots_under_wire_ids() {
    let net = instance(35, 12, 3);
    let backend = EngineBackend::single(&net, RoutingMode::Masked, Policy::Optimal);
    let recorder = FlightRecorder::new(1, 1024);
    backend.attach_tracer(&recorder);
    let mut ctx = backend.new_ctx();
    let reply = backend.execute_line(&mut ctx, r#"{"op":"provision","s":0,"t":5}"#);
    assert!(
        reply.starts_with(r#"{"ok":true,"op":"provision""#),
        "{reply}"
    );
    let reply = backend.execute_line(&mut ctx, r#"{"op":"fail-link","link":0,"trace_id":9004}"#);
    assert!(
        reply.starts_with(r#"{"ok":true,"op":"fail-link""#),
        "{reply}"
    );
    let reply = backend.execute_line(
        &mut ctx,
        r#"{"op":"restore-link","link":0,"trace_id":9005}"#,
    );
    assert!(reply.contains(r#""restored":true"#), "{reply}");
    let cut = roots_of(&recorder, 9004, TraceEventKind::FailLink);
    assert_eq!(cut.len(), 1, "one fail-link root under the wire id");
    assert_eq!((cut[0].a, cut[0].flags), (0, RootVerdict::Ok.code()));
    let repair = roots_of(&recorder, 9005, TraceEventKind::RestoreLink);
    assert_eq!(repair.len(), 1, "one restore-link root under the wire id");
    assert_eq!((repair[0].a, repair[0].flags), (0, RootVerdict::Ok.code()));
    assert!(
        roots_of(&recorder, 9005, TraceEventKind::FailLink).is_empty(),
        "a repair is not recorded as a cut"
    );
}

#[test]
fn blocked_batch_element_records_blocked_root() {
    // 0 -> 1 -> 2: nothing leaves node 2, so 2 -> 0 is unroutable.
    let g = wdm_graph::DiGraph::from_links(3, [(0, 1), (1, 2)]);
    let net = WdmNetwork::builder(g, 1)
        .link_wavelengths(0, [(0, 1)])
        .link_wavelengths(1, [(0, 1)])
        .build()
        .expect("valid");
    let backend = EngineBackend::single(&net, RoutingMode::Masked, Policy::Optimal);
    let recorder = FlightRecorder::new(1, 1024);
    backend.attach_tracer(&recorder);
    let mut ctx = backend.new_ctx();
    let reply = backend.execute_line(
        &mut ctx,
        r#"{"op":"batch","pairs":[[0,2],[2,0]],"trace_id":77}"#,
    );
    assert!(reply.contains(r#""size":2,"accepted":1"#), "{reply}");
    let roots = roots_of(&recorder, 77, TraceEventKind::Provision);
    let verdicts: Vec<u8> = roots.iter().map(|r| r.flags).collect();
    assert_eq!(
        verdicts,
        vec![RootVerdict::Ok.code(), RootVerdict::Blocked.code()],
        "one root per element, the unroutable one blocked"
    );
    assert_eq!((roots[1].a, roots[1].b), (2, 0));
}

/// One HTTP GET against the daemon's JSON listener, returning the raw
/// response (status line, headers, body).
fn http_get(addr: &str, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: wdm\r\n\r\n").as_bytes())
        .expect("request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response");
    response
}

#[test]
fn traced_session_echoes_ids_and_exports_valid_chrome_trace() {
    let net = instance(37, 16, 4);
    let backend = EngineBackend::single(&net, RoutingMode::Masked, Policy::Optimal);
    let (server, addr, handle) = start(
        backend,
        ServerConfig {
            trace_buffer: 4096,
            ..ServerConfig::default()
        },
    );

    let mut client = Client::connect(&addr);
    let mut wire_ids: Vec<u64> = Vec::new();
    let mut live: Vec<u64> = Vec::new();
    for (i, (s, t)) in [(0usize, 7usize), (1, 5), (2, 9)].iter().enumerate() {
        let tid = 9000 + i as u64;
        let reply = client.roundtrip(&format!(
            r#"{{"op":"provision","s":{s},"t":{t},"trace_id":{tid}}}"#
        ));
        // The echo is the *final* field, byte-for-byte.
        assert!(
            reply.ends_with(&format!(r#","trace_id":{tid}}}"#)),
            "{reply}"
        );
        wire_ids.push(tid);
        if let Some(id) = json::parse(&reply)
            .expect("parses")
            .get("id")
            .and_then(|v| v.as_u64())
        {
            live.push(id);
        }
    }
    assert!(!live.is_empty(), "at least one provision should accept");
    let reply = client.roundtrip(&format!(
        r#"{{"op":"release","id":{},"trace_id":9100}}"#,
        live[0]
    ));
    assert!(reply.ends_with(r#","trace_id":9100}"#), "{reply}");
    wire_ids.push(9100);

    // The trace op reports live recorder totals.
    let reply = client.roundtrip(r#"{"op":"trace"}"#);
    let parsed = json::parse(&reply).expect("parses");
    assert!(matches!(parsed.get("ok"), Some(json::Value::Bool(true))));
    let records = parsed
        .get("records")
        .and_then(|v| v.as_u64())
        .expect("records field");
    assert!(records > 0, "traced requests must have recorded events");
    assert_eq!(parsed.get("dropped").and_then(|v| v.as_u64()), Some(0));

    // Stats exposes the recorder counters after the engine fields.
    let stats = client.roundtrip(r#"{"op":"stats"}"#);
    assert!(
        stats.contains(&format!(r#""trace_records":{records},"trace_dropped":0"#)),
        "{stats}"
    );

    // GET /trace snapshots the recorder as Chrome trace_event JSON that
    // round-trips the in-tree validator, wire trace ids intact — the
    // acceptance bar for client-side correlation.
    let response = http_get(&addr, "/trace");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(
        response.contains("Content-Type: application/json"),
        "{response}"
    );
    let body = response.split("\r\n\r\n").nth(1).expect("body");
    let summary =
        wdm_obs::trace::export::validate_chrome_trace(body).expect("valid chrome trace JSON");
    assert!(summary.events > 0);
    for tid in &wire_ids {
        assert!(
            summary.trace_ids.contains(tid),
            "wire trace {tid} missing from export"
        );
    }

    server.request_drain();
    handle.join().expect("join").expect("serve");
}

#[test]
fn untraced_daemon_answers_trace_disabled_and_404() {
    let net = instance(41, 12, 3);
    let backend = EngineBackend::single(&net, RoutingMode::Masked, Policy::Optimal);
    let (server, addr, handle) = start(backend, ServerConfig::default());

    let mut client = Client::connect(&addr);
    // The reply is typed, carries no seq (nothing touched the engine),
    // and still echoes the correlation tag.
    let reply = client.roundtrip(r#"{"op":"trace","trace_id":5}"#);
    assert_eq!(
        reply,
        r#"{"ok":false,"op":"trace","error":"tracing_disabled","trace_id":5}"#
    );
    let response = http_get(&addr, "/trace");
    assert!(response.starts_with("HTTP/1.1 404"), "{response}");

    server.request_drain();
    handle.join().expect("join").expect("serve");
}

/// The full stats byte layout is the wire contract: replay identity
/// depends on every renderer emitting the same keys in the same order,
/// so this test pins both backends' stats replies exactly.
#[test]
fn stats_reply_key_order_is_pinned() {
    let net = instance(43, 12, 3);
    let single = EngineBackend::single(&net, RoutingMode::Masked, Policy::Optimal);
    let mut ctx = single.new_ctx();
    assert_eq!(
        single.execute_line(&mut ctx, r#"{"op":"stats"}"#),
        r#"{"ok":true,"op":"stats","seq":1,"accepted":0,"blocked":0,"blocked_no_path":0,"blocked_capacity":0,"released":0,"active":0,"utilization":0,"conflicts":0,"trace_records":0,"trace_dropped":0}"#
    );
    let sharded = EngineBackend::sharded(&net, 2, 8, Policy::Optimal);
    let mut ctx = sharded.new_ctx();
    assert_eq!(
        sharded.execute_line(&mut ctx, r#"{"op":"stats","trace_id":3}"#),
        r#"{"ok":true,"op":"stats","seq":1,"accepted":0,"blocked":0,"blocked_no_path":0,"blocked_capacity":0,"released":0,"active":0,"utilization":0,"conflicts":0,"trace_records":0,"trace_dropped":0,"trace_id":3}"#
    );
}

/// Trace-id echoes come from the parsed frame, not the recorder, so a
/// recorded *traced* session still replays byte-identical through an
/// offline backend with no recorder attached. (Stats is excluded: its
/// `trace_records`/`trace_dropped` fields report the live recorder and
/// are zeros offline by design.)
#[test]
fn traced_session_replays_byte_identical_offline() {
    let net = instance(47, 16, 4);
    let backend = EngineBackend::single(&net, RoutingMode::Masked, Policy::Optimal);
    let (server, addr, handle) = start(
        backend,
        ServerConfig {
            trace_buffer: 1024,
            trace_sample: 8,
            ..ServerConfig::default()
        },
    );

    let mut client = Client::connect(&addr);
    let mut session: Vec<(String, String)> = Vec::new();
    let mut live: Vec<u64> = Vec::new();
    for i in 0..40u64 {
        let line = if i % 5 == 4 && !live.is_empty() {
            let id = live.remove(0);
            format!(r#"{{"op":"release","id":{id},"trace_id":{}}}"#, 100 + i)
        } else {
            format!(
                r#"{{"op":"provision","s":{},"t":{},"trace_id":{}}}"#,
                i % 7,
                (i + 5) % 11,
                100 + i
            )
        };
        let reply = client.roundtrip(&line);
        assert!(
            reply.ends_with(&format!(r#","trace_id":{}}}"#, 100 + i)),
            "{reply}"
        );
        if let Some(id) = json::parse(&reply)
            .expect("parses")
            .get("id")
            .and_then(|v| v.as_u64())
        {
            live.push(id);
        }
        session.push((line, reply));
    }
    server.request_drain();
    handle.join().expect("join").expect("serve");

    let offline = EngineBackend::single(&net, RoutingMode::Masked, Policy::Optimal);
    let mut ctx = offline.new_ctx();
    for (line, expected) in &session {
        let replayed = offline.execute_line(&mut ctx, line);
        assert_eq!(&replayed, expected, "replay diverged on {line}");
    }
}

/// ~1M requests through real loopback sockets. Run with:
/// `WDM_SOAK=1 cargo test -p wdm-serve --release -- --ignored soak`
#[test]
#[ignore = "long-running soak; gated on WDM_SOAK=1"]
fn soak_one_million_requests_over_loopback() {
    if std::env::var("WDM_SOAK").is_err() {
        eprintln!("WDM_SOAK not set; skipping soak body");
        return;
    }
    let net = instance(101, 32, 6);
    let nodes = net.node_count();
    let backend = EngineBackend::single(&net, RoutingMode::Masked, Policy::Optimal);
    let (server, addr, handle) = start(
        backend,
        ServerConfig {
            max_inflight: 256,
            ..ServerConfig::default()
        },
    );

    const CLIENTS: u64 = 8;
    const PER_CLIENT: usize = 125_000;
    let started = std::time::Instant::now();
    let mut joins = Vec::new();
    for client_id in 0..CLIENTS {
        let addr = addr.clone();
        joins.push(thread::spawn(move || {
            let mut rng = SmallRng::seed_from_u64(7000 + client_id);
            let mut client = Client::connect(&addr);
            let mut live: Vec<u64> = Vec::new();
            let mut accepted = 0u64;
            for _ in 0..PER_CLIENT {
                if live.len() > 64 || (!live.is_empty() && rng.gen_range(0..3u32) == 0) {
                    let id = live.swap_remove(rng.gen_range(0..live.len()));
                    let reply = client.roundtrip(&format!(r#"{{"op":"release","id":{id}}}"#));
                    assert!(reply.contains(r#""ok":true"#), "{reply}");
                } else {
                    let s = rng.gen_range(0..nodes);
                    let t = rng.gen_range(0..nodes);
                    let reply =
                        client.roundtrip(&format!(r#"{{"op":"provision","s":{s},"t":{t}}}"#));
                    let parsed = json::parse(&reply).expect("reply parses");
                    if let Some(id) = parsed.get("id").and_then(|v| v.as_u64()) {
                        live.push(id);
                        accepted += 1;
                    }
                }
            }
            accepted
        }));
    }
    let mut total_accepted = 0u64;
    for join in joins {
        total_accepted += join.join().expect("soak client");
    }
    let elapsed = started.elapsed();
    // Read the latency histogram before drain tears the server down; the
    // registry handle is get-or-create, so this is the live series the
    // workers observed into.
    let latency = server
        .registry()
        .histogram("wdm_serve_request_latency_ns", &[]);
    let (p50, p90, p99) = (
        latency.quantile(0.50),
        latency.quantile(0.90),
        latency.quantile(0.99),
    );
    server.request_drain();
    let summary = handle.join().expect("join").expect("serve");
    assert_eq!(summary.requests, CLIENTS * PER_CLIENT as u64);
    assert_eq!(summary.malformed, 0);
    assert_eq!(summary.overloaded, 0);
    assert!(total_accepted > 0);
    eprintln!(
        "soak: {} requests, {} accepted, {} connections, {:.1}s wall, {:.0} req/s, \
         latency p50 {:.1}us p90 {:.1}us p99 {:.1}us",
        summary.requests,
        total_accepted,
        summary.connections,
        elapsed.as_secs_f64(),
        summary.requests as f64 / elapsed.as_secs_f64(),
        p50 / 1_000.0,
        p90 / 1_000.0,
        p99 / 1_000.0,
    );
}
