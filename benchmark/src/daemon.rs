//! The `wdm serve` child process, and what the benchmark reads about it
//! from outside: `/proc` accounting and the Prometheus scrape.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// Kernel ticks per second in `/proc/<pid>/stat` (`USER_HZ`, 100 on
/// every Linux architecture's user ABI).
const USER_HZ: f64 = 100.0;

/// How long a drained daemon may take to exit.
const EXIT_GRACE: Duration = Duration::from_secs(10);

/// A running daemon. Dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    /// Held open until the child exits: its last words go to stdout.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    /// Spawns `wdm serve <instance> --listen 127.0.0.1:0` with default
    /// flags and blocks on its readiness line. Returns the daemon and the
    /// time from spawn to that line.
    pub fn launch(wdm: &Path, instance: &Path) -> io::Result<(Daemon, Duration)> {
        let started = Instant::now();
        let mut child = Command::new(wdm)
            .arg("serve")
            .arg(instance)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let ready = started.elapsed();
        let addr = line
            .strip_prefix("wdm serve: listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        let daemon = Daemon {
            child,
            _stdout: stdout,
            addr: addr.clone().unwrap_or_default(),
        };
        read?;
        match addr {
            Some(_) => Ok((daemon, ready)),
            None => Err(io::Error::other(format!(
                "daemon did not report readiness (first line: {:?})",
                line.trim_end()
            ))),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends the `drain` op and waits for a clean exit.
    pub fn drain(mut self) -> Result<(), String> {
        let reply = (|| -> io::Result<String> {
            let mut sock = TcpStream::connect(&self.addr)?;
            sock.write_all(b"{\"op\":\"drain\"}\n")?;
            let mut reply = String::new();
            BufReader::new(sock).read_line(&mut reply)?;
            Ok(reply)
        })()
        .map_err(|e| format!("drain: {e}"))?;
        if reply.trim_end() != r#"{"ok":true,"op":"drain"}"# {
            return Err(format!("drain answered {:?}", reply.trim_end()));
        }
        let deadline = Instant::now() + EXIT_GRACE;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_millis(5)),
                Ok(None) => return Err("daemon did not exit after drain".into()),
                Err(e) => return Err(format!("wait: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// `GET /metrics` on the daemon's listener; returns the body.
pub fn scrape(addr: &str) -> io::Result<String> {
    let mut sock = TcpStream::connect(addr)?;
    sock.write_all(b"GET /metrics HTTP/1.1\r\n\r\n")?;
    let mut response = String::new();
    sock.read_to_string(&mut response)?;
    match response.split_once("\r\n\r\n") {
        Some((head, body)) if head.starts_with("HTTP/1.1 200") => Ok(body.to_string()),
        _ => Err(io::Error::other("bad /metrics response")),
    }
}

/// Parsed Prometheus text: series (name plus label block, as rendered)
/// to value. A series the program no longer exports reads as `None`,
/// so a rename degrades one metric to `null` instead of failing a run.
#[derive(Debug, Default)]
pub struct Prom(BTreeMap<String, f64>);

impl Prom {
    pub fn parse(text: &str) -> Prom {
        let mut series = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some((name, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    series.insert(name.trim_end().to_string(), v);
                }
            }
        }
        Prom(series)
    }

    pub fn get(&self, series: &str) -> Option<f64> {
        self.0.get(series).copied()
    }
}

/// `utime + stime` in ticks from `/proc/<pid>/stat` text. The command
/// name sits in parentheses and may itself contain `)` or spaces, so
/// fields are counted from the last `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Process CPU time (all threads) in seconds.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    parse_stat_ticks(&stat).map(|t| t as f64 / USER_HZ)
}

/// CPU time in nanoseconds summed over the process's live threads
/// (`/proc/<pid>/task/*/schedstat`). Finer than the 10 ms ticks of
/// `/proc/<pid>/stat`, so it can be read per 200 ms slice; the daemon's
/// connection threads live through the whole window.
pub fn thread_cpu_ns(pid: u32) -> Option<u64> {
    let mut total = 0;
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))
        .ok()?
        .flatten()
    {
        let stat = std::fs::read_to_string(task.path().join("schedstat")).ok()?;
        total += stat.split_whitespace().next()?.parse::<u64>().ok()?;
    }
    Some(total)
}

/// A `Key:   123 kB`-style field of a `/proc/.../status` file.
pub fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status_field(&status, "VmHWM").map(|kib| kib as f64 / 1024.0)
}

/// Voluntary and nonvoluntary context switches summed over the
/// process's live threads.
pub fn context_switches(pid: u32) -> (u64, u64) {
    let mut total = (0, 0);
    if let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) {
        for task in tasks.flatten() {
            if let Ok(status) = std::fs::read_to_string(task.path().join("status")) {
                total.0 += status_field(&status, "voluntary_ctxt_switches").unwrap_or(0);
                total.1 += status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0);
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_counts_fields_from_the_last_paren() {
        let stat = "4242 (evil) (name) S 1 4242 4242 0 -1 4194560 500 0 0 0 \
                    1234 56 0 0 20 0 3 0 100 1000 200 18446744073709551615";
        assert_eq!(parse_stat_ticks(stat), Some(1290));
        let plain = "7 (wdm) R 1 7 7 0 -1 0 0 0 0 0 10 5 0 0 20 0 1 0 1 1 1";
        assert_eq!(parse_stat_ticks(plain), Some(15));
        assert_eq!(parse_stat_ticks("7 (wdm) R 1"), None);
        assert_eq!(parse_stat_ticks("no parens"), None);
    }

    #[test]
    fn status_fields() {
        let status = "Name:\twdm\nVmHWM:\t   10240 kB\nvoluntary_ctxt_switches:\t12\n\
                      nonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(status_field(status, "VmHWM"), Some(10240));
        assert_eq!(status_field(status, "voluntary_ctxt_switches"), Some(12));
        assert_eq!(status_field(status, "nonvoluntary_ctxt_switches"), Some(3));
        assert_eq!(status_field(status, "VmRSS"), None);
    }

    #[test]
    fn prometheus_parser_reads_series_and_tolerates_missing_ones() {
        let text = "# TYPE wdm_serve_request_latency_ns histogram\n\
                    wdm_serve_request_latency_ns_bucket{le=\"+Inf\"} 4\n\
                    wdm_serve_request_latency_ns_sum 1500\n\
                    wdm_serve_request_latency_ns_count 4\n\
                    wdm_rwa_blocked_total{cause=\"capacity\"} 2\n\
                    garbage line\n";
        let p = Prom::parse(text);
        assert_eq!(p.get("wdm_serve_request_latency_ns_sum"), Some(1500.0));
        assert_eq!(
            p.get("wdm_rwa_blocked_total{cause=\"capacity\"}"),
            Some(2.0)
        );
        assert_eq!(p.get("wdm_serve_stage_ns_sum"), None);
        assert_eq!(Prom::parse("").get("anything"), None);
    }
}
