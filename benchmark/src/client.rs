//! The load generator: one closed-loop client per connection, recording
//! every operation and reply for the correctness gate, and the control
//! through which the phase pauses its clients.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::reply;
use crate::workload::{Created, Ledger, Op, Stream};

/// A reply that takes longer than this is a transport failure.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One operation as the client saw it.
#[derive(Debug, Clone)]
pub struct Record {
    pub op: Op,
    /// The reply's `seq`, or 0 when it carried none.
    pub seq: u64,
    /// When the write that carried the frame started, from phase start.
    pub sent: Duration,
    /// From that write to this reply.
    pub rtt: Duration,
    reply_at: usize,
    reply_len: usize,
}

/// Every operation of a phase, with all reply text in one arena.
#[derive(Debug, Default)]
pub struct Session {
    pub records: Vec<Record>,
    replies: String,
    /// Transport errors (each ends its connection early).
    pub transport_errors: Vec<String>,
}

impl Session {
    pub fn reply(&self, r: &Record) -> &str {
        &self.replies[r.reply_at..r.reply_at + r.reply_len]
    }

    /// Adds one recorded operation with its reply text.
    pub fn push(&mut self, op: Op, seq: u64, sent: Duration, rtt: Duration, reply: &str) {
        self.records.push(Record {
            op,
            seq,
            sent,
            rtt,
            reply_at: self.replies.len(),
            reply_len: reply.len(),
        });
        self.replies.push_str(reply);
    }

    /// Merges per-connection sessions; records end up in `seq` order
    /// with seq-less ones last.
    pub fn merge(parts: Vec<Session>) -> Session {
        let mut all = Session::default();
        for mut part in parts {
            let base = all.replies.len();
            for r in &mut part.records {
                r.reply_at += base;
            }
            all.records.append(&mut part.records);
            all.replies.push_str(&part.replies);
            all.transport_errors.append(&mut part.transport_errors);
        }
        all.records.sort_by_key(|r| (r.seq == 0, r.seq));
        all
    }
}

const RUN: u8 = 0;
const PAUSE: u8 = 1;
const STOP: u8 = 2;

/// Runs, pauses and stops the clients of a phase. Clients look at it
/// between requests, so a pause waits for at most one request in flight.
#[derive(Debug, Default)]
pub struct Control {
    /// `RUN`, `PAUSE` or `STOP`. Written only under `idle`'s lock with
    /// `Release`, read by clients with `Acquire` without the lock; a
    /// stale `RUN` costs one more request before a client parks.
    mode: AtomicU8,
    /// Clients parked by a pause, plus clients that have finished.
    idle: Mutex<usize>,
    changed: Condvar,
}

impl Control {
    /// Called by a client before each request: parks while paused, and
    /// returns `false` once the phase is stopped.
    fn proceed(&self) -> bool {
        loop {
            match self.mode.load(Ordering::Acquire) {
                RUN => return true,
                STOP => return false,
                _ => {
                    let mut idle = self.idle.lock().expect("control lock");
                    *idle += 1;
                    self.changed.notify_all();
                    while self.mode.load(Ordering::Acquire) == PAUSE {
                        idle = self.changed.wait(idle).expect("control lock");
                    }
                    *idle -= 1;
                }
            }
        }
    }

    /// Called once by a client that is done, for whatever reason.
    fn leave(&self) {
        *self.idle.lock().expect("control lock") += 1;
        self.changed.notify_all();
    }

    /// Pauses the clients and returns once all `clients` are parked (or
    /// gone), so none has a request outstanding.
    pub fn pause(&self, clients: usize) {
        let mut idle = self.idle.lock().expect("control lock");
        self.mode.store(PAUSE, Ordering::Release);
        while *idle < clients {
            idle = self.changed.wait(idle).expect("control lock");
        }
    }

    pub fn resume(&self) {
        self.set(RUN);
    }

    pub fn stop(&self) {
        self.set(STOP);
    }

    fn set(&self, mode: u8) {
        let _idle = self.idle.lock().expect("control lock");
        self.mode.store(mode, Ordering::Release);
        self.changed.notify_all();
    }
}

/// Runs one connection until `control` stops it: writes one frame at a
/// time, reads its reply, feeds ids back into the stream, and shares
/// created-connection counts with the churn ledger, from which
/// connection 0 adopts restored connections.
///
/// Returns the socket still open, so the daemon's worker thread is
/// still alive when the caller reads its per-thread counters.
pub fn drive(
    addr: &str,
    conn: usize,
    mut stream: Stream,
    ledger: Option<&Mutex<Ledger>>,
    start: Instant,
    control: &Control,
) -> (Session, Option<TcpStream>) {
    let mut session = Session::default();
    let sock = match connect(addr) {
        Ok(s) => s,
        Err(e) => {
            session.transport_errors.push(format!("connect: {e}"));
            control.leave();
            return (session, None);
        }
    };
    exchange(
        &sock,
        conn,
        &mut stream,
        ledger,
        start,
        control,
        &mut session,
    );
    control.leave();
    (session, Some(sock))
}

fn exchange(
    sock: &TcpStream,
    conn: usize,
    stream: &mut Stream,
    ledger: Option<&Mutex<Ledger>>,
    start: Instant,
    control: &Control,
    session: &mut Session,
) {
    let mut writer = sock;
    let mut reader = BufReader::with_capacity(1 << 16, sock);
    let mut frame = String::new();
    let mut line = String::new();
    while control.proceed() {
        if let (Some(l), 0) = (ledger, conn) {
            stream.adopt(l.lock().expect("ledger lock").take_adopted());
        }
        let op = stream.next_op();
        frame.clear();
        op.write_frame(&mut frame);
        let sent = start.elapsed();
        if let Err(e) = writer.write_all(frame.as_bytes()) {
            session.transport_errors.push(format!("write: {e}"));
            return;
        }
        line.clear();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 && line.ends_with('\n') => {}
            Ok(_) => {
                session
                    .transport_errors
                    .push("connection closed mid-reply".into());
                return;
            }
            Err(e) => {
                session.transport_errors.push(format!("read: {e}"));
                return;
            }
        }
        let rtt = start.elapsed() - sent;
        let text = line.trim_end_matches('\n');
        let sum = reply::check(&op, text).unwrap_or_default();
        stream.adopt(sum.ids.iter().copied());
        if let (Some(l), Some(seq)) = (ledger, sum.seq) {
            l.lock().expect("ledger lock").record(Created {
                seq,
                count: sum.created,
                first_id: sum.ids.first().copied(),
            });
        }
        session.push(op, sum.seq.unwrap_or(0), sent, rtt, text);
    }
}

fn connect(addr: &str) -> std::io::Result<TcpStream> {
    let sock = TcpStream::connect(addr)?;
    sock.set_nodelay(true)?;
    sock.set_read_timeout(Some(REPLY_TIMEOUT))?;
    Ok(sock)
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    use super::*;

    #[test]
    fn control_parks_every_client_and_stops_them() {
        let control = Control::default();
        let steps = AtomicUsize::new(0);
        thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    while control.proceed() {
                        steps.fetch_add(1, Ordering::Relaxed);
                        thread::yield_now();
                    }
                    control.leave();
                });
            }
            for _ in 0..20 {
                control.pause(2);
                let parked = steps.load(Ordering::Relaxed);
                thread::sleep(Duration::from_millis(1));
                assert_eq!(steps.load(Ordering::Relaxed), parked);
                control.resume();
            }
            control.stop();
        });
        // Both clients have left, so a pause returns at once.
        control.pause(2);
    }
}
