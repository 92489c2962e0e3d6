//! Wall-clock hosting for `wamcast` protocols.
//!
//! The protocols in this workspace are sans-io state machines (see
//! `wamcast_types::proto`); the deterministic simulator (`wamcast-sim`) is
//! where experiments run. This crate hosts the *same* protocol values on
//! real OS threads, real sockets and real timers, through one event loop:
//! [`tcp::serve`]. Every node is a `tcp::serve` node, whether it lives in
//! its own OS process (the harness's `peer` binary) or shares one with its
//! peers: [`Cluster`] hosts a whole topology on loopback sockets inside
//! the calling process.
//!
//! Scope: functional execution (deliveries, ordering), not measurement —
//! latency degrees are a logical-clock notion the simulator computes; a
//! wall-clock runtime has no honest way to observe them. Crash *injection*
//! is supported ([`Cluster::crash`]), and crash *notifications* are fanned
//! out to survivors so consensus re-coordination works; in a real
//! deployment they would come from `wamcast_consensus::HeartbeatFd`.
//!
//! # Example
//!
//! ```
//! use wamcast_net::Cluster;
//! use wamcast_core::RoundBroadcast;
//! use wamcast_types::Topology;
//! use std::time::Duration;
//!
//! let topo = Topology::symmetric(2, 2);
//! let cluster = Cluster::spawn(topo, |p, t| RoundBroadcast::new(p, t)).expect("bind");
//! let dest = cluster.topology().all_groups();
//! let id = cluster.cast(wamcast_types::ProcessId(0), dest, wamcast_types::Payload::from_static(b"hi"));
//! cluster.await_delivery_everywhere(id, Duration::from_secs(5)).expect("delivered");
//! let order = cluster.delivered(wamcast_types::ProcessId(3));
//! assert_eq!(order[0].id, id);
//! cluster.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod faults;
pub mod tcp;

pub use faults::WallFaults;

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tcp::{null_service, SharedDeliveries, TcpClient, TcpNode, TcpNodeConfig};
use wamcast_types::wire::Wire;
use wamcast_types::{
    AppMessage, FaultPlan, GroupSet, MessageId, Payload, ProcessId, Protocol, Topology,
};

/// Envelope arm id of every [`Cluster`] node: a cluster hosts one
/// protocol, so all its traffic shares one arm.
const CLUSTER_ARM: u8 = 0;

/// How long a control-plane call (cast ack, crash notice) may wait.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

/// A cluster of protocol instances, one [`tcp::serve`] node each, talking
/// over loopback sockets inside this process.
pub struct Cluster {
    topo: Arc<Topology>,
    nodes: Arc<Nodes>,
    next_seq: Vec<AtomicU64>,
    watchdog: Option<JoinHandle<()>>,
    /// Held open for the crash watchdog's interruptible sleep; dropped by
    /// `shutdown` so the watchdog exits immediately instead of sleeping
    /// out the remaining crash schedule.
    watchdog_stop: Option<Sender<()>>,
}

/// The per-process state shared by the cluster handle and its crash
/// watchdog.
struct Nodes {
    /// `None` once the node crashed (or the cluster shut down).
    nodes: Vec<Mutex<Option<TcpNode>>>,
    /// One control-plane client per node: casts by that process, and the
    /// crash notices it receives, travel on one connection in order.
    clients: Vec<Mutex<TcpClient>>,
    delivered: Vec<SharedDeliveries>,
}

impl Nodes {
    fn is_alive(&self, p: usize) -> bool {
        self.nodes[p].lock().expect("node poisoned").is_some()
    }

    /// Stops `p`'s node and notifies every survivor, standing in for a
    /// failure detector.
    fn crash(&self, p: ProcessId) {
        let node = self.nodes[p.index()].lock().expect("node poisoned").take();
        if let Some(node) = node {
            node.shutdown();
        }
        for (q, client) in self.clients.iter().enumerate() {
            if self.is_alive(q) {
                let _ = client.lock().expect("client poisoned").crash_notify(p);
            }
        }
    }
}

/// Stops every running node of `nodes`, concurrently: each waits out its
/// readers' poll interval, which would otherwise add up per node.
fn shutdown_all(nodes: &[Mutex<Option<TcpNode>>]) {
    std::thread::scope(|s| {
        for slot in nodes {
            if let Some(node) = slot.lock().expect("node poisoned").take() {
                s.spawn(move || node.shutdown());
            }
        }
    });
}

impl Cluster {
    /// Serves one node per process of `topo` on a reserved loopback
    /// address, each running the protocol instance produced by `factory`
    /// (called in process order).
    ///
    /// # Errors
    ///
    /// Returns any error reserving or binding a listen address, and
    /// `InvalidInput` for a topology the wire format cannot address.
    pub fn spawn<P>(
        topo: Topology,
        factory: impl FnMut(ProcessId, &Topology) -> P,
    ) -> io::Result<Self>
    where
        P: Protocol + Send + 'static,
        P::Msg: Wire,
    {
        Self::spawn_faulty(topo, FaultPlan::none(), 0, factory)
    }

    /// Spawns a cluster whose links are wrapped in the [`FaultPlan`]
    /// adversary: every node's outbound copies consult one shared
    /// [`WallFaults`] and may be dropped or duplicated (latency spikes are
    /// simulator-only — a kernel socket has no delay to scale), and the
    /// plan's scheduled crashes are executed by a watchdog thread at their
    /// wall-clock offsets. `seed` feeds the plan's deterministic fate
    /// stream. Protocols hosted under a lossy plan need their
    /// retransmission mode on (e.g. `MulticastConfig::with_retry`) to stay
    /// live.
    ///
    /// # Errors
    ///
    /// As [`spawn`](Self::spawn).
    pub fn spawn_faulty<P>(
        topo: Topology,
        plan: FaultPlan,
        seed: u64,
        mut factory: impl FnMut(ProcessId, &Topology) -> P,
    ) -> io::Result<Self>
    where
        P: Protocol + Send + 'static,
        P::Msg: Wire,
    {
        let faults = (!plan.is_none()).then(|| Arc::new(WallFaults::new(plan, seed)));
        let topo = Arc::new(topo);
        let n = topo.num_processes();
        let addrs = tcp::reserve_local_addrs(n)?;
        let mut nodes = Vec::with_capacity(n);
        let mut delivered = Vec::with_capacity(n);
        for p in topo.processes() {
            let log: SharedDeliveries = Arc::new(Mutex::new(Vec::new()));
            let cfg = TcpNodeConfig {
                me: p,
                topo: Arc::clone(&topo),
                addrs: addrs.clone(),
                arm: CLUSTER_ARM,
                faults: faults.clone(),
                trace: None,
            };
            match tcp::serve(cfg, factory(p, &topo), Arc::clone(&log), null_service()) {
                Ok(node) => nodes.push(Mutex::new(Some(node))),
                Err(e) => {
                    shutdown_all(&nodes);
                    return Err(e);
                }
            }
            delivered.push(log);
        }
        let nodes = Arc::new(Nodes {
            nodes,
            clients: addrs
                .iter()
                .map(|&a| Mutex::new(TcpClient::new(a, CLUSTER_ARM, CLIENT_TIMEOUT)))
                .collect(),
            delivered,
        });
        let start = faults.as_ref().map_or_else(Instant::now, |f| f.start());
        // The plan's scheduled crashes run on a watchdog thread, mirroring
        // the simulator's crash events at wall-clock offsets. Its sleeps
        // are interruptible: shutdown drops `watchdog_stop`, which wakes
        // the `recv_timeout` with `Disconnected` and ends the thread.
        let mut watchdog = None;
        let mut watchdog_stop = None;
        if let Some(f) = &faults {
            let mut crashes = f.with_plan(|p| p.crashes.clone());
            if !crashes.is_empty() {
                crashes.sort_by_key(|&(at, _)| at);
                let nodes = Arc::clone(&nodes);
                let (stop_tx, stop_rx) = channel::<()>();
                watchdog_stop = Some(stop_tx);
                watchdog = Some(std::thread::spawn(move || {
                    for (at, p) in crashes {
                        let due = start + Duration::from_nanos(at.as_nanos());
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            if stop_rx.recv_timeout(wait) != Err(RecvTimeoutError::Timeout) {
                                return; // shutdown: abandon the schedule
                            }
                        }
                        nodes.crash(p);
                    }
                }));
            }
        }
        Ok(Cluster {
            topo,
            nodes,
            next_seq: (0..n).map(|_| AtomicU64::new(0)).collect(),
            watchdog,
            watchdog_stop,
        })
    }

    /// The cluster topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// A-XCasts a fresh message from `caster` to `dest`, returning its id.
    /// Blocks until `caster`'s node acknowledges the cast (or a crashed
    /// caster's connection fails).
    ///
    /// # Panics
    ///
    /// Panics if `dest` is empty or not a set of this topology's groups,
    /// or if `caster` is not a process.
    pub fn cast(&self, caster: ProcessId, dest: GroupSet, payload: Payload) -> MessageId {
        assert!(!dest.is_empty(), "destination must be non-empty");
        assert!(
            dest.is_subset(self.topo.all_groups()),
            "destination {dest} names a group outside the topology"
        );
        let seq = self.next_seq[caster.index()].fetch_add(1, Ordering::Relaxed);
        let mut client = self.nodes.clients[caster.index()]
            .lock()
            .expect("client poisoned");
        // A lost ack is a lost cast, exactly as if the caster had crashed.
        let _ = client.cast(seq, dest, payload);
        MessageId::new(caster, seq)
    }

    /// Crashes `p` (its node stops and closes its sockets) and notifies
    /// all survivors, standing in for a failure detector.
    pub fn crash(&self, p: ProcessId) {
        self.nodes.crash(p);
    }

    /// Snapshot of the messages A-Delivered by `p`, in delivery order.
    pub fn delivered(&self, p: ProcessId) -> Vec<AppMessage> {
        self.nodes.delivered[p.index()]
            .lock()
            .expect("delivery log poisoned")
            .clone()
    }

    /// Blocks until every live process addressed by `id`'s destination has
    /// delivered it, or the timeout elapses.
    ///
    /// # Errors
    ///
    /// Returns `Err(AwaitTimeout)` if the deadline passes first.
    pub fn await_delivery_everywhere(
        &self,
        id: MessageId,
        timeout: Duration,
    ) -> Result<(), AwaitTimeout> {
        let deadline = Instant::now() + timeout;
        let has = |p: ProcessId| {
            self.nodes.delivered[p.index()]
                .lock()
                .expect("delivery log poisoned")
                .iter()
                .find(|m| m.id == id)
                .map(|m| m.dest)
        };
        loop {
            // Find dest from any process that has the message, else poll.
            if let Some(dest) = self.topo.processes().find_map(has) {
                let all = self
                    .topo
                    .processes_in(dest)
                    .filter(|p| self.nodes.is_alive(p.index()))
                    .all(|p| has(p).is_some());
                if all {
                    return Ok(());
                }
            }
            if Instant::now() > deadline {
                return Err(AwaitTimeout);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Stops every node and joins all threads.
    pub fn shutdown(mut self) {
        // Wake the crash watchdog first (if any) so joining it does not
        // wait out whatever remains of the crash schedule.
        drop(self.watchdog_stop.take());
        if let Some(w) = self.watchdog.take() {
            let _ = w.join();
        }
        shutdown_all(&self.nodes.nodes);
    }
}

/// Error: [`Cluster::await_delivery_everywhere`] timed out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AwaitTimeout;

impl std::fmt::Display for AwaitTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "timed out waiting for delivery")
    }
}

impl std::error::Error for AwaitTimeout {}
