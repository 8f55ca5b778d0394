//! The three workloads, the seeded operation streams that drive them, and
//! the ledger that lets a churn client adopt connections restored by its
//! own fibre cuts.
//!
//! A stream is a pure function of `(seed, connection, replies seen)`: it
//! uses its own SplitMix64 generator, not the repository's `rand`, so a
//! change to the code under test cannot change the workload.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Pairs in one `batch` frame.
pub const BATCH: usize = 8;

/// One workload: an instance plus the shape of the operation stream.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// File under `benchmark/instances/`.
    pub instance: &'static str,
    /// Client connections, one thread each, each a closed loop of single
    /// requests.
    pub connections: usize,
    /// Live connections a client holds before it must release.
    pub cap: usize,
    /// Adds batches, fibre cuts with repairs and stats to the mix.
    pub churn: bool,
    /// Operations per logical client in one in-process trace pass.
    pub trace_ops: usize,
}

/// Every workload uses one connection, and the benchmark runs on one CPU
/// (see `cpu`). A closed-loop connection keeps one thread busy at a
/// time, its client or its daemon worker, so the two share that CPU
/// without waiting for each other. With two connections on two CPUs the
/// timings measured the scheduler as much as the daemon.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "small_closed",
        connections: 1,
        instance: "nsfnet_k8.wdm",
        cap: 32,
        churn: false,
        trace_ops: 20_000,
    },
    Workload {
        name: "large_closed",
        connections: 1,
        instance: "sparse512_k32.wdm",
        cap: 64,
        churn: false,
        trace_ops: 1_000,
    },
    Workload {
        name: "mixed_churn",
        connections: 1,
        instance: "geant_k16.wdm",
        cap: 48,
        churn: true,
        trace_ops: 4_000,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: tiny, fast, and fixed forever.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// A uniform `(s, t)` pair with `s != t`.
    pub fn pair(&mut self, nodes: u32) -> (u32, u32) {
        let s = self.below(u64::from(nodes)) as u32;
        let t = (s + 1 + self.below(u64::from(nodes - 1)) as u32) % nodes;
        (s, t)
    }
}

/// One client operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Provision { s: u32, t: u32 },
    Release { id: u64 },
    FailLink { link: u32 },
    RestoreLink { link: u32 },
    Batch(Box<[(u32, u32); BATCH]>),
    Stats,
}

/// Operation kinds, for per-kind statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Provision,
    Release,
    FailLink,
    RestoreLink,
    Batch,
    Stats,
}

pub const KINDS: [Kind; 6] = [
    Kind::Provision,
    Kind::Release,
    Kind::FailLink,
    Kind::RestoreLink,
    Kind::Batch,
    Kind::Stats,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Provision => "provision",
            Kind::Release => "release",
            Kind::FailLink => "fail_link",
            Kind::RestoreLink => "restore_link",
            Kind::Batch => "batch",
            Kind::Stats => "stats",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

impl Op {
    pub fn kind(&self) -> Kind {
        match self {
            Op::Provision { .. } => Kind::Provision,
            Op::Release { .. } => Kind::Release,
            Op::FailLink { .. } => Kind::FailLink,
            Op::RestoreLink { .. } => Kind::RestoreLink,
            Op::Batch(_) => Kind::Batch,
            Op::Stats => Kind::Stats,
        }
    }

    /// Appends the wire frame, newline included.
    pub fn write_frame(&self, out: &mut String) {
        let _ = match self {
            Op::Provision { s, t } => writeln!(out, r#"{{"op":"provision","s":{s},"t":{t}}}"#),
            Op::Release { id } => writeln!(out, r#"{{"op":"release","id":{id}}}"#),
            Op::FailLink { link } => writeln!(out, r#"{{"op":"fail-link","link":{link}}}"#),
            Op::RestoreLink { link } => writeln!(out, r#"{{"op":"restore-link","link":{link}}}"#),
            Op::Batch(pairs) => {
                out.push_str(r#"{"op":"batch","pairs":["#);
                for (i, (s, t)) in pairs.iter().enumerate() {
                    let sep = if i == 0 { "" } else { "," };
                    let _ = write!(out, "{sep}[{s},{t}]");
                }
                writeln!(out, "]}}")
            }
            Op::Stats => writeln!(out, r#"{{"op":"stats"}}"#),
        };
    }

    #[cfg(test)]
    pub fn frame(&self) -> String {
        let mut s = String::new();
        self.write_frame(&mut s);
        s
    }
}

/// The op mix of one client connection.
///
/// Every op: release a random live id when the client holds more than
/// `cap` connections, or with probability 1/3 when it holds any;
/// otherwise provision a random `s != t`. Churn workloads override some
/// slots (1-based op index `i`): `i % 200 == 0` is a batch of 8 pairs,
/// `i % 100 == 20` a stats, and on connection 0 `i % 50 == 10` cuts a
/// random link that `i % 50 == 35` repairs. The offsets keep the slots
/// apart so every kind keeps its stated rate.
#[derive(Debug, Clone)]
pub struct Stream {
    rng: Rng,
    conn: usize,
    cap: usize,
    churn: bool,
    nodes: u32,
    links: u32,
    live: Vec<u64>,
    issued: u64,
    cut: Option<u32>,
}

impl Stream {
    pub fn new(w: &Workload, seed: u64, conn: usize, nodes: usize, links: usize) -> Self {
        let mut mix = Rng::new(seed);
        for _ in 0..=conn {
            mix.next_u64();
        }
        Stream {
            rng: Rng::new(mix.next_u64()),
            conn,
            cap: w.cap,
            churn: w.churn,
            nodes: u32::try_from(nodes).expect("instance node count fits u32"),
            links: u32::try_from(links).expect("instance link count fits u32"),
            live: Vec::new(),
            issued: 0,
            cut: None,
        }
    }

    pub fn next_op(&mut self) -> Op {
        self.issued += 1;
        let i = self.issued;
        if self.churn {
            if i.is_multiple_of(200) {
                let mut pairs = [(0, 0); BATCH];
                for p in &mut pairs {
                    *p = self.rng.pair(self.nodes);
                }
                return Op::Batch(Box::new(pairs));
            }
            if i % 100 == 20 {
                return Op::Stats;
            }
            if self.conn == 0 && i % 50 == 10 {
                let link = self.rng.below(u64::from(self.links)) as u32;
                self.cut = Some(link);
                return Op::FailLink { link };
            }
            if self.conn == 0 && i % 50 == 35 {
                if let Some(link) = self.cut.take() {
                    return Op::RestoreLink { link };
                }
            }
        }
        let release =
            self.live.len() > self.cap || (!self.live.is_empty() && self.rng.below(3) == 0);
        if release {
            let at = self.rng.below(self.live.len() as u64) as usize;
            Op::Release {
                id: self.live.swap_remove(at),
            }
        } else {
            let (s, t) = self.rng.pair(self.nodes);
            Op::Provision { s, t }
        }
    }

    /// Takes ownership of connections this client learned about.
    pub fn adopt(&mut self, ids: impl IntoIterator<Item = u64>) {
        self.live.extend(ids);
    }
}

/// What the id ledger needs from one reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Created {
    pub seq: u64,
    /// Connections the engine created while executing the op.
    pub count: u32,
    /// The first created id when the reply names it; `None` for
    /// restorations, whose ids the reply does not carry.
    pub first_id: Option<u64>,
}

/// Recovers the ids of connections restored by a fibre cut.
///
/// A `fail-link` reply reports how many connections it restored but not
/// their new ids, and a restored connection nobody holds would stay up
/// for the rest of the run, filling the network. The engine numbers
/// connections consecutively in `seq` order, so once every reply with a
/// lower `seq` is known, the cut's ids are the next `restored` numbers.
/// If a reply ever contradicts that numbering the ledger stops adopting
/// rather than release ids it does not own.
#[derive(Debug, Default)]
pub struct Ledger {
    pending: BTreeMap<u64, Created>,
    folded: u64,
    next_id: u64,
    adopted: Vec<u64>,
    broken: bool,
}

impl Ledger {
    pub fn record(&mut self, created: Created) {
        if !self.broken {
            self.pending.insert(created.seq, created);
            self.fold();
        }
    }

    fn fold(&mut self) {
        while let Some(c) = self.pending.remove(&(self.folded + 1)) {
            match c.first_id {
                Some(id) if id != self.next_id => {
                    self.broken = true;
                    self.adopted.clear();
                    return;
                }
                Some(_) => {}
                None => self
                    .adopted
                    .extend(self.next_id..self.next_id + u64::from(c.count)),
            }
            self.next_id += u64::from(c.count);
            self.folded += 1;
        }
    }

    pub fn take_adopted(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.adopted)
    }

    /// Whether the consecutive-id assumption failed.
    pub fn broken(&self) -> bool {
        self.broken
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &Workload, seed: u64, conn: usize, n: usize) -> Vec<Op> {
        let mut s = Stream::new(w, seed, conn, 14, 42);
        let mut next_id = 0;
        (0..n)
            .map(|_| {
                let op = s.next_op();
                if matches!(op, Op::Provision { .. }) {
                    s.adopt([next_id]);
                    next_id += 1;
                }
                op
            })
            .collect()
    }

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds_and_connections() {
        for w in &WORKLOADS {
            assert_eq!(drain(w, 1, 0, 2_000), drain(w, 1, 0, 2_000), "{}", w.name);
            assert_ne!(drain(w, 1, 0, 2_000), drain(w, 2, 0, 2_000), "{}", w.name);
            assert_ne!(drain(w, 1, 0, 2_000), drain(w, 1, 1, 2_000), "{}", w.name);
        }
    }

    #[test]
    fn churn_slots_keep_their_rates() {
        let w = find("mixed_churn").unwrap();
        let ops = drain(w, 3, 0, 1_000);
        let count = |k: Kind| ops.iter().filter(|o| o.kind() == k).count();
        assert_eq!(count(Kind::Batch), 5);
        assert_eq!(count(Kind::Stats), 10);
        assert_eq!(count(Kind::FailLink), 20);
        assert_eq!(count(Kind::RestoreLink), 20);
        for (i, op) in ops.iter().enumerate() {
            if let Op::FailLink { link } = op {
                assert_eq!(ops[i + 25], Op::RestoreLink { link: *link });
            }
        }
        let other = drain(w, 3, 1, 1_000);
        assert!(other
            .iter()
            .all(|o| !matches!(o, Op::FailLink { .. } | Op::RestoreLink { .. })));
    }

    #[test]
    fn releases_respect_the_cap() {
        let w = find("small_closed").unwrap();
        let mut s = Stream::new(w, 9, 0, 14, 42);
        s.adopt(0..40);
        let mut released: Vec<u64> = (0..8)
            .map(|_| match s.next_op() {
                Op::Release { id } => id,
                other => panic!("over the cap but issued {other:?}"),
            })
            .collect();
        released.sort_unstable();
        released.dedup();
        assert_eq!(released.len(), 8);
        assert!(released.iter().all(|&id| id < 40));
    }

    #[test]
    fn pairs_are_distinct_and_in_range() {
        let mut rng = Rng::new(5);
        for _ in 0..10_000 {
            let (s, t) = rng.pair(3);
            assert!(s < 3 && t < 3 && s != t);
        }
    }

    #[test]
    fn frames_render_the_wire_protocol() {
        assert_eq!(
            Op::Provision { s: 1, t: 2 }.frame(),
            "{\"op\":\"provision\",\"s\":1,\"t\":2}\n"
        );
        assert_eq!(
            Op::Batch(Box::new([(0, 1); BATCH])).frame(),
            format!(
                "{{\"op\":\"batch\",\"pairs\":[{}]}}\n",
                ["[0,1]"; BATCH].join(",")
            )
        );
        assert_eq!(
            Op::FailLink { link: 3 }.frame(),
            "{\"op\":\"fail-link\",\"link\":3}\n"
        );
    }

    #[test]
    fn ledger_adopts_restored_ids_once_earlier_replies_are_known() {
        let mut l = Ledger::default();
        let created = |seq, count, first_id| Created {
            seq,
            count,
            first_id,
        };
        l.record(created(1, 1, Some(0)));
        // seq 3 is a cut that restored two connections; seq 2 is unknown.
        l.record(created(3, 2, None));
        assert!(l.take_adopted().is_empty());
        l.record(created(2, 1, Some(1)));
        assert_eq!(l.take_adopted(), vec![2, 3]);
        l.record(created(4, 1, Some(4)));
        assert!(!l.broken());
        l.record(created(5, 1, Some(9)));
        assert!(l.broken());
    }
}
