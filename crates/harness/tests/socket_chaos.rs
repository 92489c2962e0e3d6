//! Socket chaos: `kill -9` real peer OS processes mid-workload, restart
//! them on their old ports, and prove the recorded history still passes
//! the checker.
//!
//! Topology is 3 groups × 2 processes. With `d = 2` a group's consensus
//! quorum is both members, so every quorum contains the group's
//! never-killed member — killing at most one process per group therefore
//! stalls the group while it is down but cannot lose or fork a decision,
//! and a killed process may restart with *fresh* state. The chaos
//! schedule kills:
//!
//! * one **replica** (`p1`, group 0) immediately after a client casts a
//!   cross-shard MultiPut addressed to its group, and
//! * one **coordinator** (`p2`, group 1 — a caster running with
//!   `--batch`, so casts are sitting in its batch buffer) right after
//!   accepting two more casts,
//!
//! then restarts both on the same ports (`peer` retries `AddrInUse`
//! binds) and keeps committing. Every op is recorded *before* its cast is
//! sent, so ops orphaned by a kill are judged as maybe-committed; the
//! final history is checked against the replica logs of the four
//! never-killed processes only (a restarted process is not
//! correct-at-the-end and its fresh log proves nothing).
//!
//! If the sandbox forbids `Command::spawn`, the process test skips
//! itself; `thread_fallback_chaos_survives_peer_restart` covers the same
//! schedule with in-process peers (graceful stop + fresh re-serve instead
//! of `SIGKILL`).

use std::cell::RefCell;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::process::{Child, Command as Proc, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wamcast_harness::tcp_host::{
    await_ready, fetch_replica_log, fetch_trace, poll_response, spawn_smr_peer, KvPeer,
};
use wamcast_harness::SMR_ARM;
use wamcast_net::tcp::{reserve_local_addrs, TcpClient};
use wamcast_smr::{history, responder_shard, Command, History, OpRecord, ShardMap};
use wamcast_types::{GroupId, MessageId, ProcessId, SimTime, Topology};

const GROUPS: usize = 3;
const PROCS: usize = 2;
const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// The shared chaos driver: records ops pre-send, casts them through a
/// per-client caster, polls responder shards on never-killed processes
/// only, and judges the final history.
struct Chaos {
    topo: Topology,
    shards: ShardMap,
    addrs: Vec<SocketAddr>,
    started: Instant,
    ops: Vec<OpRecord>,
    /// Lazily-dialed control-plane clients, per process.
    pollers: HashMap<ProcessId, TcpClient>,
    /// Processes that were ever killed (excluded from polling and from
    /// the final replica-log set).
    killed: Vec<ProcessId>,
}

impl Chaos {
    fn new(addrs: Vec<SocketAddr>) -> Chaos {
        Chaos {
            topo: Topology::symmetric(GROUPS, PROCS),
            shards: ShardMap::new(GROUPS),
            addrs,
            started: Instant::now(),
            ops: Vec::new(),
            pollers: HashMap::new(),
            killed: Vec::new(),
        }
    }

    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.started.elapsed().as_nanos() as u64)
    }

    /// A key owned by shard `g`.
    fn key(&self, g: usize) -> u64 {
        self.shards.key_owned_by(GroupId(g as u16), 7)
    }

    /// Records the op, then casts it through `caster`. A failed or lost
    /// cast is fine — the pre-send record marks it maybe-committed.
    fn send(&mut self, client: &mut TcpClient, caster: ProcessId, c: usize, cmd: Command) -> usize {
        let dest = self.shards.dest_of(&cmd);
        let seq = ((c as u64) << 32) | self.ops.len() as u64;
        self.ops.push(OpRecord {
            id: MessageId::new(caster, seq),
            cmd: cmd.clone(),
            dest,
            client: c,
            invoked_at: self.now(),
            responded_at: None,
            response: None,
        });
        let _ = client.cast(seq, dest, cmd.encode());
        self.ops.len() - 1
    }

    /// Polls every still-unresponded op against a never-killed member of
    /// its responder shard, until all ops in `required` have responded or
    /// the budget runs out. Ops outside `required` get best-effort polls
    /// (an orphaned cast is *allowed* to stay maybe-committed forever).
    fn poll_until(&mut self, budget: Duration, required: &[usize]) {
        let deadline = Instant::now() + budget;
        loop {
            for i in 0..self.ops.len() {
                if self.ops[i].responded_at.is_some() {
                    continue;
                }
                let responder = responder_shard(&self.shards, &self.ops[i].cmd, self.ops[i].dest);
                let Some(&p) = self
                    .topo
                    .members(responder)
                    .iter()
                    .find(|p| !self.killed.contains(p))
                else {
                    continue;
                };
                let addr = self.addrs[p.index()];
                let poller = self
                    .pollers
                    .entry(p)
                    .or_insert_with(|| TcpClient::new(addr, SMR_ARM, OP_TIMEOUT));
                if let Ok(Some(applied)) = poll_response(poller, self.ops[i].id) {
                    self.ops[i].responded_at = Some(self.now());
                    self.ops[i].response = Some(applied.response);
                }
            }
            let done = required.iter().all(|&i| self.ops[i].responded_at.is_some());
            if done || Instant::now() > deadline {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    fn assert_responded(&self, required: &[usize], what: &str) {
        for &i in required {
            assert!(
                self.ops[i].responded_at.is_some(),
                "{what}: op {} ({}) never committed",
                self.ops[i].id,
                self.ops[i].cmd.name()
            );
        }
    }

    /// Quiesces the never-killed replicas (two consecutive agreeing
    /// `(digest, len)` sweeps), captures their logs and runs the checker.
    fn judge(mut self) -> (history::HistoryReport, History) {
        let correct: Vec<ProcessId> = self
            .topo
            .processes()
            .filter(|p| !self.killed.contains(p))
            .collect();
        let deadline = Instant::now() + OP_TIMEOUT;
        let mut last: Vec<Option<(u64, usize)>> = Vec::new();
        let logs = loop {
            let logs: Vec<_> = correct
                .iter()
                .map(|&p| {
                    let addr = self.addrs[p.index()];
                    let poller = self
                        .pollers
                        .entry(p)
                        .or_insert_with(|| TcpClient::new(addr, SMR_ARM, OP_TIMEOUT));
                    fetch_replica_log(poller).ok()
                })
                .collect();
            let snap: Vec<Option<(u64, usize)>> = logs
                .iter()
                .map(|l| l.as_ref().map(|l| (l.digest, l.applied.len())))
                .collect();
            if (snap.iter().all(Option::is_some) && snap == last) || Instant::now() > deadline {
                break logs;
            }
            last = snap;
            std::thread::sleep(Duration::from_millis(100));
        };
        let replicas = logs
            .into_iter()
            .map(|l| l.expect("replica log fetch from a correct peer"))
            .collect();
        let hist = History {
            shards: self.shards,
            ops: self.ops,
            replicas,
        };
        (history::check(&hist), hist)
    }
}

/// The chaos schedule itself, shared by the process and thread tests.
/// `kill` takes a process down abruptly; `restart` brings it back (fresh
/// state, same port). Returns the judged history.
fn run_chaos_schedule(
    addrs: Vec<SocketAddr>,
    kill: impl Fn(ProcessId),
    restart: impl Fn(ProcessId),
) -> (history::HistoryReport, History) {
    let mut chaos = Chaos::new(addrs);
    // Client 0 casts through p0 (group 0); client 1 through p2 (group 1),
    // re-targeting p3 after p2 is killed.
    let p = |i: u32| ProcessId(i);
    let mut c0 = TcpClient::new(chaos.addrs[0], SMR_ARM, OP_TIMEOUT);
    let mut c1 = TcpClient::new(chaos.addrs[2], SMR_ARM, OP_TIMEOUT);

    // Phase A: all six peers alive; a mixed workload must fully commit.
    let mut pre = Vec::new();
    for round in 0..3i64 {
        let (k0, k1, k2) = (chaos.key(0), chaos.key(1), chaos.key(2));
        pre.push(chaos.send(
            &mut c0,
            p(0),
            0,
            Command::Put {
                key: k0,
                value: round,
            },
        ));
        pre.push(chaos.send(&mut c0, p(0), 0, Command::Get { key: k1 }));
        pre.push(chaos.send(
            &mut c1,
            p(2),
            1,
            Command::MultiPut {
                entries: vec![(k1, 10 + round), (k2, 20 + round)],
            },
        ));
    }
    chaos.poll_until(OP_TIMEOUT, &pre);
    chaos.assert_responded(&pre, "pre-chaos");

    // Kill the group-0 replica mid-MultiPut: the cast is in flight (and
    // recorded) when p1 goes down; group 0 stalls at 1/2 until restart.
    let (k0, k1) = (chaos.key(0), chaos.key(1));
    chaos.send(
        &mut c0,
        p(0),
        0,
        Command::MultiPut {
            entries: vec![(k0, 100), (k1, 101)],
        },
    );
    chaos.killed.push(p(1));
    kill(p(1));

    // Kill the group-1 coordinator mid-batch: it has just accepted two
    // casts (sitting in its batch buffer / in flight) when it dies.
    let (k1, k2) = (chaos.key(1), chaos.key(2));
    chaos.send(&mut c1, p(2), 1, Command::Incr { key: k2, delta: 1 });
    chaos.send(
        &mut c1,
        p(2),
        1,
        Command::MultiPut {
            entries: vec![(k1, 200), (k2, 201)],
        },
    );
    chaos.killed.push(p(2));
    kill(p(2));

    // Group 2 keeps full membership throughout and must stay live even
    // while groups 0 and 1 are stalled.
    let k2 = chaos.key(2);
    let mid_op = chaos.send(&mut c0, p(0), 0, Command::Put { key: k2, value: 7 });
    chaos.poll_until(Duration::from_secs(10), &[mid_op]);
    assert!(
        chaos.ops[mid_op].responded_at.is_some(),
        "group 2 lost liveness although both members are up"
    );

    // Restart both victims on their old ports; client 1 re-targets the
    // surviving group-1 member for the rest of the run.
    restart(p(1));
    restart(p(2));
    let mut c1 = TcpClient::new(chaos.addrs[3], SMR_ARM, OP_TIMEOUT);

    // Phase C: post-restart workload across every shard must commit.
    let mut post = Vec::new();
    for round in 0..3i64 {
        let (k0, k1, k2) = (chaos.key(0), chaos.key(1), chaos.key(2));
        post.push(chaos.send(
            &mut c0,
            p(0),
            0,
            Command::Incr {
                key: k0,
                delta: round,
            },
        ));
        post.push(chaos.send(
            &mut c1,
            p(3),
            1,
            Command::Transfer {
                from: k1,
                to: k2,
                amount: 1,
            },
        ));
    }
    chaos.poll_until(OP_TIMEOUT, &post);
    chaos.assert_responded(&post, "post-restart");
    let open = chaos
        .ops
        .iter()
        .filter(|o| o.responded_at.is_none())
        .count();
    // The orphaned mid-kill casts are *allowed* to stay unresponded
    // (maybe-committed); the checker judges whatever actually applied.
    eprintln!("socket_chaos: {open} op(s) left maybe-committed");

    chaos.judge()
}

// ---- process flavour --------------------------------------------------

/// Spawns one `peer --smr` OS process for slot `me`.
fn spawn_peer_process(me: u32, addrs: &[SocketAddr]) -> std::io::Result<Child> {
    let joined = addrs
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",");
    Proc::new(env!("CARGO_BIN_EXE_peer"))
        .args([
            "--smr",
            "--me",
            &me.to_string(),
            "--groups",
            &GROUPS.to_string(),
            "--procs",
            &PROCS.to_string(),
            "--batch",
            "4",
            "--addrs",
            &joined,
        ])
        .stdout(Stdio::null())
        .spawn()
}

#[test]
fn killing_and_restarting_real_peer_processes_keeps_history_clean() {
    let addrs = reserve_local_addrs(GROUPS * PROCS).expect("reserve");
    let mut spawned: Vec<Option<Child>> = Vec::new();
    for me in 0..(GROUPS * PROCS) as u32 {
        match spawn_peer_process(me, &addrs) {
            Ok(child) => spawned.push(Some(child)),
            Err(e) => {
                // Sandboxes that forbid process spawn skip this flavour;
                // the thread fallback below covers the same schedule.
                eprintln!("socket_chaos: skipping process flavour (spawn failed: {e})");
                for c in spawned.iter_mut().flatten() {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                return;
            }
        }
    }
    await_ready(&addrs, OP_TIMEOUT).unwrap_or_else(|a| panic!("peer at {a} never came up"));

    let children = RefCell::new(spawned);
    let (report, hist) = run_chaos_schedule(
        addrs.clone(),
        |p| {
            // SIGKILL: no shutdown handshake, sockets die mid-frame.
            let mut child = children.borrow_mut()[p.index()]
                .take()
                .expect("victim is running");
            child.kill().expect("kill -9");
            child.wait().expect("reap");
        },
        |p| {
            let child = spawn_peer_process(p.0, &addrs).expect("restart");
            children.borrow_mut()[p.index()] = Some(child);
        },
    );

    // Post-mortem forensics: the killed peers took their recorders with
    // them, but every survivor holds one — pull p0's over the control
    // plane and check it carries real lifecycle evidence. This is the
    // recovery path a human would use after a chaos run: ask the nodes
    // that lived what they saw.
    let mut c = TcpClient::new(addrs[0], SMR_ARM, OP_TIMEOUT);
    let dump = fetch_trace(&mut c).expect("surviving peer serves its flight recorder");
    assert!(
        dump.starts_with("flight-recorder:"),
        "unexpected dump header: {}",
        dump.lines().next().unwrap_or("")
    );
    assert!(
        dump.contains(" deliver ") && dump.contains(" cast="),
        "survivor's recorder should hold cast-attributed deliver events:\n{}",
        dump.lines().take(5).collect::<Vec<_>>().join("\n")
    );

    for child in children.into_inner().iter_mut().flatten() {
        let _ = child.kill();
        let _ = child.wait();
    }
    assert!(
        report.violations.is_empty(),
        "history checker failed under process chaos: {:?}",
        report.violations
    );
    assert_eq!(hist.replicas.len(), 4, "one log per never-killed peer");
    assert!(
        hist.committed() >= 16,
        "too few committed ops: {}",
        hist.committed()
    );
}

// ---- thread flavour ---------------------------------------------------

#[test]
fn thread_fallback_chaos_survives_peer_restart() {
    let topo = Arc::new(Topology::symmetric(GROUPS, PROCS));
    let addrs = reserve_local_addrs(GROUPS * PROCS).expect("reserve");
    let peers: RefCell<Vec<Option<KvPeer>>> = RefCell::new(
        topo.processes()
            .map(|me| {
                Some(
                    spawn_smr_peer(me, Arc::clone(&topo), addrs.clone(), None, None, None)
                        .expect("spawn"),
                )
            })
            .collect(),
    );

    let respawn = |me: ProcessId| -> KvPeer {
        // The old listener may still be winding down: brief AddrInUse
        // retry, mirroring the peer binary's restart path.
        let mut last = None;
        for _ in 0..50 {
            match spawn_smr_peer(me, Arc::clone(&topo), addrs.clone(), None, None, None) {
                Ok(peer) => return peer,
                Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
                    last = Some(e);
                    std::thread::sleep(Duration::from_millis(100));
                }
                Err(e) => panic!("respawn {me}: {e}"),
            }
        }
        panic!("respawn {me}: {}", last.expect("retries imply an error"));
    };

    let (report, hist) = run_chaos_schedule(
        addrs.clone(),
        |p| {
            // In-process "crash": stop the node and drop its state. Not a
            // SIGKILL, but the survivors see the same thing — a peer that
            // stops talking, then returns empty.
            peers.borrow_mut()[p.index()]
                .take()
                .expect("victim is running")
                .node
                .shutdown();
        },
        |p| {
            let fresh = respawn(p);
            peers.borrow_mut()[p.index()] = Some(fresh);
        },
    );

    for peer in peers.into_inner().into_iter().flatten() {
        peer.node.shutdown();
    }
    assert!(
        report.violations.is_empty(),
        "history checker failed under thread chaos: {:?}",
        report.violations
    );
    assert_eq!(hist.replicas.len(), 4, "one log per never-stopped peer");
    assert!(
        hist.committed() >= 16,
        "too few committed ops: {}",
        hist.committed()
    );
}
