//! The `kv-tcp` workload: the partitioned KV store on 2 groups × 2
//! in-process peers, each `WithApply<GenuineMulticast (a1-batched), KV>`
//! under the timing shim, served by `tcp::serve` over loopback with no
//! injected delay.
//!
//! The mix is 90% single-key `Get`/`Put`/`Incr` and 10% cross-shard
//! `MultiPut`/`Transfer`. One load thread (this one) holds one connection
//! per group's caster. A run is a series of rounds over the same seeded
//! input; each sets up a fresh cluster (timed), then runs
//!
//! * an open-loop phase: Poisson arrivals at [`RATE`] ops/s, latency timed
//!   from each op's due time;
//! * a closed-loop phase: [`WINDOW`] ops in flight.
//!
//! An op commits at the latest of its destination groups' first applies,
//! timestamped by the shim at A-Deliver; completions are counted from the
//! shim, never by copying a node's delivery log.

use crate::report::Outcome;
use crate::shim::{now_ns, ApplyStats, NetHooks, Stats, Timed, TimedKv, HOPS_DRAIN, HOPS_OFF};
use crate::sim::layer_metrics;
use crate::stats::{
    least, median, peak_rss_mb, process_cpu_ns, quantile, ratio, reset_peak_rss, this_thread_cpu_ns,
    thread_cpu_ns,
};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wamcast_core::{GenuineMulticast, WithApply};
use wamcast_harness::registry::a1_stack_config;
use wamcast_harness::scenario::RETRY_INTERVAL;
use wamcast_harness::SMR_ARM;
use wamcast_net::tcp::{
    self, null_service, Frame, NoMsg, SharedDeliveries, TcpNode, TcpNodeConfig,
};
use wamcast_smr::{
    check, responder_shard, shared_replica, Command, History, OpRecord, ReplicaLog, Response,
    ShardMap, SharedKv,
};
use wamcast_types::{
    wire, BatchConfig, GroupId, GroupSet, MessageId, ProcessId, SimTime, SplitMix64, Topology,
};

/// Groups × processes per group.
const SHAPE: (usize, usize) = (2, 2);
/// Open-loop arrival rate, ops per second.
const RATE: f64 = 2000.0;
/// Closed-loop ops in flight.
const WINDOW: usize = 256;
/// Fewest rounds per run (each a fresh cluster over the same input).
const MIN_ROUNDS: usize = 3;
/// Seconds of open-loop arrivals per round.
const OPEN_S: f64 = 1.6;
/// Ops of one round's closed-loop phase (a fixed count, which bounds the
/// history the checker has to judge).
const CLOSED_OPS: usize = 16_000;
/// Open-loop ops due in this first stretch warm the cluster up (dials,
/// buffers) and are checked but left out of the latency figures.
const WARMUP: Duration = Duration::from_millis(300);
/// Keys drawn uniformly from `0..KEYS`.
const KEYS: u64 = 1024;
/// Percentage of cross-shard ops.
const CROSS_PCT: u64 = 10;
/// How long a round may take to finish its in-flight ops.
const DRAIN: Duration = Duration::from_secs(30);

/// One generated op.
struct Op {
    /// Due time from the phase start (open loop only).
    due: u64,
    cmd: Command,
    dest: GroupSet,
    /// Connection (= caster group) it is sent on.
    conn: usize,
    /// The sealed `Frame::Cast`, length prefix included.
    frame: Vec<u8>,
}

/// The seeded input of a run.
struct Input {
    open: Vec<Op>,
    closed: Vec<Op>,
}

impl Input {
    /// Op `i` of the run: open-loop ops first, then closed-loop ones.
    fn op(&self, i: usize) -> &Op {
        match self.open.get(i) {
            Some(op) => op,
            None => &self.closed[i - self.open.len()],
        }
    }
}

fn command(rng: &mut SplitMix64, shards: ShardMap) -> Command {
    if rng.next_below(100) < CROSS_PCT {
        let a = shards.key_owned_by(GroupId(0), rng.next_below(KEYS));
        let b = shards.key_owned_by(GroupId(1), rng.next_below(KEYS));
        if rng.next_below(2) == 0 {
            Command::Transfer {
                from: a,
                to: b,
                amount: 1 + rng.next_below(9) as i64,
            }
        } else {
            Command::MultiPut {
                entries: vec![
                    (a, rng.next_below(100) as i64),
                    (b, rng.next_below(100) as i64),
                ],
            }
        }
    } else {
        let key = rng.next_below(KEYS);
        match rng.next_below(3) {
            0 => Command::Get { key },
            1 => Command::Put {
                key,
                value: rng.next_below(100) as i64,
            },
            _ => Command::Incr {
                key,
                delta: rng.next_below(9) as i64 - 4,
            },
        }
    }
}

fn make_op(rng: &mut SplitMix64, shards: ShardMap, due: u64, seq: u64) -> Op {
    let cmd = command(rng, shards);
    let dest = shards.dest_of(&cmd);
    let conn = dest.min().expect("a command has a destination").index();
    let cast: Frame<NoMsg> = Frame::Cast {
        seq,
        dest,
        payload: cmd.encode(),
    };
    let body = wire::seal(SMR_ARM, &cast);
    let mut frame = (body.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&body);
    Op {
        due,
        cmd,
        dest,
        conn,
        frame,
    }
}

fn input(seed: u64, open_s: f64) -> Input {
    let shards = ShardMap::new(SHAPE.0);
    let mut rng = SplitMix64::new(seed ^ 0x6B76_7463_7000_0000);
    let mut open = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += -rng.next_f64().max(1e-12).ln() / RATE;
        if t >= open_s {
            break;
        }
        let seq = open.len() as u64;
        open.push(make_op(&mut rng, shards, (t * 1e9) as u64, seq));
    }
    let closed = (0..CLOSED_OPS)
        .map(|i| make_op(&mut rng, shards, 0, (open.len() + i) as u64))
        .collect();
    Input { open, closed }
}

/// Commit accounting fed by the shims' A-Deliver hook.
struct Tracker {
    topo: Arc<Topology>,
    /// Per op: first apply per group (ns; 0 = not yet).
    first: Vec<[AtomicU64; 2]>,
    /// Per op and process: A-Deliver time.
    delivered: Vec<AtomicU64>,
    /// Per op: destination groups yet to apply.
    remaining: Vec<AtomicU8>,
    /// Per op: commit time.
    commit: Vec<AtomicU64>,
    done: Mutex<Sender<usize>>,
}

impl Tracker {
    fn on_deliver(&self, p: ProcessId, id: MessageId, now: u64) {
        let i = id.seq as usize;
        let n = self.topo.num_processes();
        let Some(slot) = self.first.get(i) else {
            return;
        };
        self.delivered[i * n + p.index()].store(now, Ordering::Relaxed);
        let g = self.topo.group_of(p).index();
        if slot[g]
            .compare_exchange(0, now, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
            && self.remaining[i].fetch_sub(1, Ordering::AcqRel) == 1
        {
            self.commit[i].store(now, Ordering::Release);
            let _ = self
                .done
                .lock()
                .expect("completion channel poisoned")
                .send(i);
        }
    }
}

/// One client connection: non-blocking, with its own write backlog, so
/// one thread can write on schedule and drain acks from every connection.
struct Conn {
    s: TcpStream,
    out: Vec<u8>,
    off: usize,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let s = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        s.set_nodelay(true)?;
        s.set_nonblocking(true)?;
        Ok(Conn {
            s,
            out: Vec::new(),
            off: 0,
            buf: vec![0; 64 * 1024],
        })
    }

    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.out.extend_from_slice(frame);
        self.flush()
    }

    fn flush(&mut self) -> io::Result<()> {
        while self.off < self.out.len() {
            match self.s.write(&self.out[self.off..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.off += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.off = 0;
        Ok(())
    }

    /// Reads and discards whatever acks are waiting.
    fn drain(&mut self) -> io::Result<()> {
        loop {
            match self.s.read(&mut self.buf) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
    }
}

fn pump(conns: &mut [Conn]) -> io::Result<()> {
    for c in conns {
        c.drain()?;
        c.flush()?;
    }
    Ok(())
}

/// A running cluster and what the benchmark keeps of it.
struct Cluster {
    nodes: Vec<TcpNode>,
    kvs: Vec<SharedKv>,
    applies: Vec<Arc<ApplyStats>>,
    conns: Vec<Conn>,
    hooks: Arc<NetHooks>,
    tracker: Arc<Tracker>,
    stats: Arc<Mutex<Stats>>,
    done: Receiver<usize>,
}

fn free_addrs(n: usize) -> io::Result<Vec<SocketAddr>> {
    let held: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<_>>()?;
    held.iter().map(TcpListener::local_addr).collect()
}

fn spawn(ops: usize, traced: bool) -> io::Result<Cluster> {
    let topo = Arc::new(Topology::symmetric(SHAPE.0, SHAPE.1));
    let n = topo.num_processes();
    let shards = ShardMap::new(SHAPE.0);
    let (tx, done) = channel();
    let tracker = Arc::new(Tracker {
        topo: Arc::clone(&topo),
        first: (0..ops)
            .map(|_| [AtomicU64::new(0), AtomicU64::new(0)])
            .collect(),
        delivered: (0..ops * n).map(|_| AtomicU64::new(0)).collect(),
        remaining: (0..ops).map(|_| AtomicU8::new(0)).collect(),
        commit: (0..ops).map(|_| AtomicU64::new(0)).collect(),
        done: Mutex::new(tx),
    });
    let t = Arc::clone(&tracker);
    let hooks = Arc::new(NetHooks::new(
        n,
        ops,
        traced,
        Box::new(move |p, id, now| t.on_deliver(p, id, now)),
    ));
    let stats = Arc::new(Mutex::new(Stats::default()));
    let addrs = free_addrs(n)?;
    let batch = BatchConfig::new(8).with_max_delay(Duration::from_millis(20));
    let mcfg = a1_stack_config(Some(batch), Some(RETRY_INTERVAL));
    let mut c = Cluster {
        nodes: Vec::new(),
        kvs: Vec::new(),
        applies: Vec::new(),
        conns: Vec::new(),
        hooks,
        tracker,
        stats,
        done,
    };
    for p in topo.processes() {
        let kv = shared_replica(topo.group_of(p), shards);
        let applies = Arc::new(ApplyStats::default());
        let sm = TimedKv {
            inner: Arc::clone(&kv),
            stats: Arc::clone(&applies),
        };
        let proto = WithApply::new(GenuineMulticast::new(p, &topo, mcfg), sm);
        let shimmed = Timed::new(
            proto,
            p,
            SMR_ARM,
            Arc::clone(&c.stats),
            Some(Arc::clone(&c.hooks)),
        );
        // The node's own delivery log is never read: completion comes
        // from the shim.
        let delivered: SharedDeliveries = Arc::new(Mutex::new(Vec::new()));
        let cfg = TcpNodeConfig {
            me: p,
            topo: Arc::clone(&topo),
            addrs: addrs.clone(),
            arm: SMR_ARM,
            faults: None,
            trace: None,
        };
        c.nodes
            .push(tcp::serve(cfg, shimmed, delivered, null_service())?);
        c.kvs.push(kv);
        c.applies.push(applies);
    }
    for g in topo.groups() {
        let caster = topo.members(g)[0];
        c.conns
            .push(Conn::open(c.nodes[caster.index()].local_addr())?);
    }
    // Each event loop names its thread from `on_start`; the CPU split of
    // the open-loop phase needs all of them before it starts.
    let deadline = Instant::now() + Duration::from_secs(5);
    while c
        .hooks
        .loop_tids
        .iter()
        .any(|t| t.load(Ordering::Relaxed) == 0)
    {
        if Instant::now() > deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "an event loop did not start",
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(c)
}

impl Cluster {
    fn shutdown(self) {
        drop(self.conns);
        for nd in self.nodes {
            nd.shutdown();
        }
    }

    fn issue(&mut self, idx: usize, op: &Op, write_ns: &mut [u64]) -> io::Result<()> {
        self.tracker.remaining[idx].store(op.dest.len() as u8, Ordering::Release);
        write_ns[idx] = now_ns();
        self.conns[op.conn].send(&op.frame)
    }

    fn loop_cpu(&self) -> Vec<u64> {
        self.hooks
            .loop_tids
            .iter()
            .map(|t| thread_cpu_ns(t.load(Ordering::Relaxed)))
            .collect()
    }

    fn handler_ns(&self) -> u64 {
        self.hooks
            .handler_ns
            .iter()
            .map(|h| h.load(Ordering::Relaxed))
            .sum()
    }
}

/// What one round measured.
#[derive(Default)]
struct Round {
    setup_s: f64,
    issued: usize,
    /// Open-phase figures: latencies (ns) of post-warm-up ops.
    commit: Vec<u64>,
    deliver: Vec<u64>,
    lag: Vec<u64>,
    ingress: Vec<u64>,
    open_ops: f64,
    open_wall_ns: f64,
    cpu_ns: f64,
    loop_cpu_ns: Vec<f64>,
    load_cpu_ns: f64,
    loop_handler_ns: f64,
    /// Closed-phase figures.
    closed_rate: f64,
    closed_events_rate: f64,
    traced_rate: f64,
    check_s: f64,
    /// Peak resident set size over the round, MiB.
    peak_mb: f64,
    /// Seconds spent in the two measured phases.
    measured_s: f64,
    stats_inter: u64,
    apply_ns: u64,
    applies: u64,
    stats: Stats,
    hops: Vec<u64>,
    problems: Vec<String>,
    failed_ops: u64,
}

fn round(inp: &Input, traced: bool) -> io::Result<Round> {
    let t0 = Instant::now();
    let total = inp.open.len() + inp.closed.len();
    let mut c = spawn(total, traced)?;
    let mut r = Round {
        setup_s: t0.elapsed().as_secs_f64(),
        ..Round::default()
    };
    let mut write_ns = vec![0u64; total];
    let mut due_ns = vec![0u64; total];

    // Open loop.
    c.hooks.traced.store(traced, Ordering::Relaxed);
    let cpu0 = process_cpu_ns();
    let load0 = this_thread_cpu_ns();
    let loops0 = c.loop_cpu();
    let h0 = c.handler_ns();
    let start = now_ns();
    for (i, op) in inp.open.iter().enumerate() {
        let due = start + op.due;
        loop {
            pump(&mut c.conns)?;
            let now = now_ns();
            if now >= due {
                break;
            }
            std::thread::sleep(Duration::from_nanos((due - now).min(200_000)));
        }
        due_ns[i] = due;
        c.issue(i, op, &mut write_ns)?;
        r.lag.push(write_ns[i] - due);
    }
    let n_open = inp.open.len();
    wait_committed(&mut c, 0..n_open)?;
    let end = now_ns();
    // The loop tids are known once each node handled an event.
    let loops1 = c.loop_cpu();
    r.cpu_ns = (process_cpu_ns() - cpu0) as f64;
    r.load_cpu_ns = (this_thread_cpu_ns() - load0) as f64;
    r.loop_cpu_ns = loops1
        .iter()
        .zip(&loops0)
        .map(|(b, a)| b.saturating_sub(*a) as f64)
        .collect();
    r.loop_handler_ns = (c.handler_ns() - h0) as f64;
    r.open_wall_ns = (end - start) as f64;
    r.open_ops = n_open as f64;
    let n = SHAPE.0 * SHAPE.1;
    let warm = start + WARMUP.as_nanos() as u64;
    for i in (0..n_open).filter(|&i| due_ns[i] >= warm) {
        let commit = c.tracker.commit[i].load(Ordering::Acquire);
        r.commit.push(commit - due_ns[i]);
        for p in 0..n {
            let d = c.tracker.delivered[i * n + p].load(Ordering::Relaxed);
            if d > 0 {
                r.deliver.push(d - due_ns[i]);
            }
        }
        let entry = c.hooks.cast_entry_ns[i].load(Ordering::Relaxed);
        if entry > 0 {
            r.ingress.push(entry.saturating_sub(write_ns[i]));
        }
    }
    while c.done.try_recv().is_ok() {}
    if traced {
        drain_hops(&mut c, &mut r)?;
    }

    // Closed loop. Traced runs alternate untraced and traced quarters, so
    // the two rates compare like with like.
    let quarters: &[bool] = if traced {
        &[false, true, false, true]
    } else {
        &[false]
    };
    let mut next = n_open;
    let closed0 = now_ns();
    // (ops, handler calls, seconds) of the untraced and traced parts.
    let mut parts = [[0.0f64; 3]; 2];
    for &tr in quarters {
        c.hooks.traced.store(tr, Ordering::Relaxed);
        let ops = CLOSED_OPS / quarters.len();
        let got = closed_phase(&mut c, inp, &mut next, ops, &mut write_ns)?;
        for (sum, x) in parts[usize::from(tr)].iter_mut().zip(got) {
            *sum += x;
        }
    }
    let [plain, shimmed] = parts;
    r.closed_rate = plain[0] / plain[2];
    r.closed_events_rate = plain[1] / plain[2];
    r.traced_rate = ratio(shimmed[0], shimmed[2]);
    r.issued = next;
    r.measured_s = (r.open_wall_ns + (now_ns() - closed0) as f64) / 1e9;

    // Every replica applies every op of its group before the logs are read.
    let topo = Topology::symmetric(SHAPE.0, SHAPE.1);
    let want: Vec<u64> = topo
        .processes()
        .map(|p| {
            (0..next)
                .filter(|&i| inp.op(i).dest.contains(topo.group_of(p)))
                .count() as u64
        })
        .collect();
    let deadline = Instant::now() + DRAIN;
    while c
        .applies
        .iter()
        .zip(&want)
        .any(|(a, w)| a.applies.load(Ordering::Relaxed) < *w)
    {
        if Instant::now() > deadline {
            r.problems
                .push("replicas did not apply every op in time".to_string());
            break;
        }
        pump(&mut c.conns)?;
        std::thread::sleep(Duration::from_millis(1));
    }
    let logs: Vec<ReplicaLog> = topo
        .processes()
        .map(|p| ReplicaLog::capture(p, &c.kvs[p.index()].lock().expect("replica poisoned")))
        .collect();
    r.apply_ns = c
        .applies
        .iter()
        .map(|a| a.apply_ns.load(Ordering::Relaxed))
        .sum();
    r.applies = c
        .applies
        .iter()
        .map(|a| a.applies.load(Ordering::Relaxed))
        .sum();
    let first: Vec<[u64; 2]> = (0..next)
        .map(|i| {
            let f = &c.tracker.first[i];
            [f[0].load(Ordering::Acquire), f[1].load(Ordering::Acquire)]
        })
        .collect();
    let stats = Arc::clone(&c.stats);
    let casters: Vec<ProcessId> = topo.groups().map(|g| topo.members(g)[0]).collect();
    c.shutdown();
    // The shims merged their counters into `stats` as the nodes stopped.
    r.stats = std::mem::take(&mut *stats.lock().expect("stats sink poisoned"));
    r.stats_inter = r.stats.inter_copies;

    verify(&mut r, &topo, &logs, inp, next, &first, &write_ns, &casters);
    Ok(r)
}

/// Runs `ops` closed-loop ops with `WINDOW` in flight. Returns the ops
/// committed, the handler invocations and the seconds the phase took.
fn closed_phase(
    c: &mut Cluster,
    inp: &Input,
    next: &mut usize,
    ops: usize,
    write_ns: &mut [u64],
) -> io::Result<[f64; 3]> {
    let first = *next;
    let end_idx = (first + ops).min(inp.open.len() + inp.closed.len());
    let ev0 = c.hooks.events.load(Ordering::Relaxed);
    let start = now_ns();
    let mut in_flight = 0usize;
    while in_flight < WINDOW && *next < end_idx {
        c.issue(*next, inp.op(*next), write_ns)?;
        *next += 1;
        in_flight += 1;
    }
    let deadline = Instant::now() + DRAIN;
    while in_flight > 0 {
        match c.done.recv_timeout(Duration::from_millis(1)) {
            Ok(i) => {
                for i in std::iter::once(i).chain(c.done.try_iter().collect::<Vec<_>>()) {
                    if i < first {
                        continue;
                    }
                    in_flight -= 1;
                    if *next < end_idx {
                        c.issue(*next, inp.op(*next), write_ns)?;
                        *next += 1;
                        in_flight += 1;
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        pump(&mut c.conns)?;
        if Instant::now() > deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "closed-loop ops did not commit",
            ));
        }
    }
    let secs = (now_ns() - start) as f64 / 1e9;
    let events = c.hooks.events.load(Ordering::Relaxed) - ev0;
    Ok([(end_idx - first) as f64, events as f64, secs])
}

/// Ends hop matching, so that hops come from the open loop only: sends
/// stop being logged, and once every logged copy has been received
/// receipts stop popping. Each link delivers in order, so until its FIFO
/// is empty no copy sent after the switch has reached the receiver; the
/// trace-mode flips of the closed loop therefore cannot mispair a copy.
fn drain_hops(c: &mut Cluster, r: &mut Round) -> io::Result<()> {
    c.hooks.hops.store(HOPS_DRAIN, Ordering::Relaxed);
    let deadline = Instant::now() + DRAIN;
    while !c.hooks.links_drained() {
        if Instant::now() > deadline {
            r.problems
                .push("copies logged on a link were never received".to_string());
            break;
        }
        pump(&mut c.conns)?;
        std::thread::sleep(Duration::from_micros(200));
    }
    c.hooks.hops.store(HOPS_OFF, Ordering::Relaxed);
    r.hops = std::mem::take(&mut *c.hooks.hops_ns.lock().expect("hop log poisoned"));
    Ok(())
}

fn wait_committed(c: &mut Cluster, range: std::ops::Range<usize>) -> io::Result<()> {
    let deadline = Instant::now() + DRAIN;
    for i in range {
        while c.tracker.commit[i].load(Ordering::Acquire) == 0 {
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "open-loop ops did not commit",
                ));
            }
            pump(&mut c.conns)?;
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    Ok(())
}

/// The correctness gate: every op applied exactly once at every replica
/// of its destination groups, equal digests within each group, and the
/// history checker over the whole round.
#[allow(clippy::too_many_arguments)]
fn verify(
    r: &mut Round,
    topo: &Topology,
    logs: &[ReplicaLog],
    inp: &Input,
    issued: usize,
    first: &[[u64; 2]],
    write_ns: &[u64],
    casters: &[ProcessId],
) {
    let shards = ShardMap::new(SHAPE.0);
    let mut bad = vec![false; issued];
    let mut responses: Vec<[Option<Response>; 2]> = vec![[None, None]; issued];
    for log in logs {
        let g = log.group;
        let mut seen = vec![0u32; issued];
        for a in &log.applied {
            match seen.get_mut(a.id.seq as usize) {
                Some(s) => *s += 1,
                None => r
                    .problems
                    .push(format!("{}: applied unknown op {}", log.process, a.id)),
            }
            if let Some(slot) = responses.get_mut(a.id.seq as usize) {
                slot[g.index()].get_or_insert(a.response);
            }
        }
        for (i, &s) in seen.iter().enumerate() {
            if s != u32::from(inp.op(i).dest.contains(g)) {
                bad[i] = true;
            }
        }
    }
    for g in topo.groups() {
        let digests: Vec<u64> = logs
            .iter()
            .filter(|l| l.group == g)
            .map(|l| l.digest)
            .collect();
        if digests.windows(2).any(|w| w[0] != w[1]) {
            r.problems
                .push(format!("group {g}: replica digests differ"));
        }
    }
    let ops: Vec<OpRecord> = (0..issued)
        .map(|i| {
            let o = inp.op(i);
            let resp = responder_shard(&shards, &o.cmd, o.dest);
            let at = first[i][resp.index()];
            OpRecord {
                id: MessageId::new(casters[o.conn], i as u64),
                cmd: o.cmd.clone(),
                dest: o.dest,
                client: o.conn,
                invoked_at: SimTime::from_nanos(write_ns[i]),
                responded_at: (at > 0).then(|| SimTime::from_nanos(at)),
                response: if at > 0 {
                    responses[i][resp.index()]
                } else {
                    None
                },
            }
        })
        .collect();
    for (i, o) in ops.iter().enumerate() {
        if o.response.is_none() {
            bad[i] = true;
        }
    }
    let h = History {
        shards,
        ops,
        replicas: logs.to_vec(),
    };
    let t = Instant::now();
    let report = check(&h);
    r.check_s = t.elapsed().as_secs_f64();
    r.problems.extend(report.violations);
    r.failed_ops = bad.iter().filter(|&&b| b).count() as u64;
    if r.failed_ops > 0 {
        r.problems.push(format!(
            "{} op(s) not applied exactly once at every addressed replica",
            r.failed_ops
        ));
    }
}

/// Runs the kv-tcp workload: rounds until their measured phases add up
/// to `seconds` (at least [`MIN_ROUNDS`]). Latencies are medians over
/// rounds, so one round caught by a scheduling stall does not move them;
/// rates and CPU per op are the least-disturbed round's.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut rounds: Vec<Round> = Vec::new();
    let mut spent = 0.0;
    while spent < seconds as f64 || rounds.len() < MIN_ROUNDS {
        // Generating the input is part of each round's set-up.
        reset_peak_rss();
        let t = Instant::now();
        let inp = input(seed, OPEN_S);
        let gen_s = t.elapsed().as_secs_f64();
        match round(&inp, traced) {
            Ok(mut r) => {
                r.setup_s += gen_s;
                r.peak_mb = peak_rss_mb();
                spent += r.measured_s;
                out.attempted += r.issued as u64;
                // A round-level violation (digests, history) fails at
                // least one unit even when every op was applied.
                out.failed += r.failed_ops.max(u64::from(!r.problems.is_empty()));
                out.problems.append(&mut r.problems);
                rounds.push(r);
            }
            Err(e) => {
                out.fail(format!("round failed: {e}"));
                break;
            }
        }
    }
    if rounds.is_empty() {
        return out;
    }
    let mut stats = Stats::default();
    for r in &mut rounds {
        stats.merge(&mut r.stats);
    }
    let sum = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).sum::<f64>();
    let med = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let pct =
        |f: &dyn Fn(&Round) -> &Vec<u64>, q: f64| med(&|r| quantile(&mut f(r).clone(), q) as f64);
    let open_ops = sum(&|r| r.open_ops);

    let e = &mut out.e2e;
    e.set("setup_s", med(&|r| r.setup_s));
    // Rates and CPU come from the least-disturbed round (see
    // `stats::least`); latencies stay medians over rounds.
    let fastest = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).fold(0.0, f64::max);
    e.set("events_per_s", fastest(&|r| r.closed_events_rate));
    e.set("ops_per_s", fastest(&|r| r.closed_rate));
    e.set(
        "cpu_us_per_op",
        least(&rounds.iter().map(|r| r.cpu_ns / 1e3 / r.open_ops).collect::<Vec<_>>()),
    );
    e.set("deliver_p50_ms", pct(&|r| &r.deliver, 0.5) / 1e6);
    e.set("commit_p50_ms", pct(&|r| &r.commit, 0.5) / 1e6);
    e.set(
        "inter_msgs_per_cast",
        sum(&|r| r.stats_inter as f64) / sum(&|r| r.issued as f64),
    );
    out.layer.set("peak_rss_mb", med(&|r| r.peak_mb));

    if traced {
        let l = &mut out.layer;
        l.set("deliver_p99_ms", pct(&|r| &r.deliver, 0.99) / 1e6);
        l.set("commit_p99_ms", pct(&|r| &r.commit, 0.99) / 1e6);
        let traced_casts = stats.calls_of(crate::shim::Kind::Cast) as f64;
        layer_metrics(l, &stats, traced_casts);
        l.set(
            "smr.apply_ns",
            sum(&|r| r.apply_ns as f64) / sum(&|r| r.applies as f64),
        );
        l.set("smr.check_s", med(&|r| r.check_s));
        l.set("net.ingress_us_p50", pct(&|r| &r.ingress, 0.5) / 1e3);
        l.set("net.ingress_us_p99", pct(&|r| &r.ingress, 0.99) / 1e3);
        l.set("net.hop_us_p50", pct(&|r| &r.hops, 0.5) / 1e3);
        l.set("net.hop_us_p99", pct(&|r| &r.hops, 0.99) / 1e3);
        l.set(
            "net.msgs_per_op",
            ratio(stats.remote_copies as f64, traced_casts),
        );
        let loop_cpu = sum(&|r| r.loop_cpu_ns.iter().sum::<f64>());
        l.set("net.loop_cpu_us_per_op", loop_cpu / 1e3 / open_ops);
        l.set(
            "net.loop_self_us_per_op",
            (loop_cpu - sum(&|r| r.loop_handler_ns)) / 1e3 / open_ops,
        );
        let io = sum(&|r| r.cpu_ns) - loop_cpu - sum(&|r| r.load_cpu_ns);
        l.set("net.io_cpu_us_per_op", io / 1e3 / open_ops);
        let busy = rounds
            .iter()
            .flat_map(|r| r.loop_cpu_ns.iter().map(|c| c / r.open_wall_ns))
            .fold(0.0, f64::max);
        l.set("net.loop_busy_frac_max", busy);
        l.set("load.lag_p99_ms", pct(&|r| &r.lag, 0.99) / 1e6);
        l.set(
            "load.lag_max_ms",
            med(&|r| quantile(&mut r.lag.clone(), 1.0) as f64) / 1e6,
        );
        l.set(
            "shim.overhead_frac",
            ratio(med(&|r| r.closed_rate), med(&|r| r.traced_rate)) - 1.0,
        );
        out.spans = std::mem::take(&mut stats.spans);
    }
    out
}
