//! E16 — TCP serialization throughput probe and the tracked TCP baseline.
//!
//! The engine probe ([`crate::perf`]) isolates the protocol hot path in
//! one address space; this module measures what the *wire* adds: encode +
//! syscall + decode on every hop. The scenario is a 2×2 topology of
//! in-process TCP peers (real sockets over loopback, one OS thread set
//! per peer — the same [`wamcast_net::tcp::serve`] stack the multi-process
//! runtime uses) with a pipelining client casting fixed-size payloads to
//! both groups as fast as the socket accepts them. The run is over when
//! every peer has A-Delivered every cast, so the measured wall covers the
//! full fan-out: rmcast, per-group consensus, timestamp exchange and
//! delivery — dominated on a loopback box by serialization and copy cost,
//! which is exactly the quantity the encode-once path attacks.
//!
//! The `tcp_probe` binary snapshots [`probe_tcp`] into `BENCH_tcp.json`;
//! CI's perf-smoke job re-runs `tcp_probe --quick --gate` against the
//! checked-in snapshot and fails on a >20% ops/sec regression — the same
//! measure + snapshot + gate shape as the sim-side `perf_probe`. The
//! pre-change reference (the re-encode-per-peer TCP path, measured just
//! before the encode-once overhaul landed) is checked in at
//! `crates/harness/data/BENCH_tcp_pre.json`.

use crate::perf::json_number;
use crate::registry::a1_stack_config;
use crate::scenario::RETRY_INTERVAL;
use std::io::{self, Read};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wamcast_core::GenuineMulticast;
use wamcast_net::tcp::{
    self, null_service, write_frame, Frame, NoMsg, SharedDeliveries, TcpNode, TcpNodeConfig,
};
use wamcast_types::wire;
use wamcast_types::{BatchConfig, GroupSet, Payload, Topology};

/// Wire arm id of the probe's bare-delivery peers (distinct from the SMR
/// arm so probe traffic can never be mistaken for a KV cluster's).
pub const TCP_PROBE_ARM: u8 = 0x52;

/// Probe topology: groups × processes-per-group. 2×2 is the smallest
/// shape where both intra-group consensus (Accept/Accepted between the
/// two members) and inter-group timestamp exchange cross real sockets.
pub const TCP_PROBE_SHAPE: (usize, usize) = (2, 2);

/// Payload bytes per cast — large enough that payload copies show up,
/// small enough that framing and header cost still dominate.
pub const TCP_PROBE_PAYLOAD: usize = 200;

/// Hard ceiling on one probe repeat; exceeding it means the cluster
/// stalled (a liveness bug, not a slow box) and the probe errors out.
const PROBE_DEADLINE: Duration = Duration::from_secs(120);

/// Outcome of one TCP-throughput probe repeat.
#[derive(Clone, Copy, Debug)]
pub struct TcpProbeResult {
    /// Casts driven through the cluster (each delivered by every peer).
    pub ops: u64,
    /// Wall clock from first client write to full delivery everywhere.
    pub wall: Duration,
}

impl TcpProbeResult {
    /// Casts fully delivered per wall-clock second.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// One probe repeat on the canonical [`TCP_PROBE_SHAPE`]; see
/// [`probe_tcp_shaped`].
///
/// # Errors
///
/// Socket errors spawning or driving the cluster, or a cluster that
/// fails to deliver everything within the probe deadline.
pub fn probe_tcp_once(ops: u64) -> io::Result<TcpProbeResult> {
    probe_tcp_shaped(TCP_PROBE_SHAPE, ops)
}

/// One probe repeat: spawns a fresh `shape` cluster of bare A1 peers,
/// casts `ops` payloads from a pipelining client into peer 0, and clocks
/// until every peer has delivered every cast. `alloc_probe` runs this at
/// `(2, 1)` — the CI wire smoke's 2-process shape — to count allocations
/// per op without measuring time.
///
/// # Errors
///
/// Socket errors spawning or driving the cluster, or a cluster that
/// fails to deliver everything within the probe deadline.
pub fn probe_tcp_shaped(shape: (usize, usize), ops: u64) -> io::Result<TcpProbeResult> {
    let (groups, per_group) = shape;
    let topo = Arc::new(Topology::symmetric(groups, per_group));
    let n = topo.num_processes();
    let addrs = tcp::reserve_local_addrs(n)?;
    let batch = BatchConfig::new(8).with_max_delay(Duration::from_millis(20));
    let mcfg = a1_stack_config(Some(batch), Some(RETRY_INTERVAL));

    let mut nodes: Vec<TcpNode> = Vec::with_capacity(n);
    for p in topo.processes() {
        let delivered: SharedDeliveries = Arc::new(Mutex::new(Vec::new()));
        let proto = GenuineMulticast::new(p, &topo, mcfg);
        nodes.push(tcp::serve(
            TcpNodeConfig {
                me: p,
                topo: Arc::clone(&topo),
                addrs: addrs.clone(),
                arm: TCP_PROBE_ARM,
                faults: None,
                trace: None,
            },
            proto,
            delivered,
            null_service(),
        )?);
    }

    let dest = GroupSet::first_n(groups);
    let payload = Payload::from(vec![0x5A; TCP_PROBE_PAYLOAD]);

    // Pipelining client: one socket into peer 0, every cast written
    // back-to-back (loopback backpressure is the only throttle), acks
    // drained and discarded by a side thread so the peer's reply writes
    // never block.
    let mut sock = TcpStream::connect_timeout(&nodes[0].local_addr(), Duration::from_secs(5))?;
    sock.set_nodelay(true)?;
    let mut drain_half = sock.try_clone()?;
    let drain = std::thread::spawn(move || {
        let mut sink = [0u8; 4096];
        while matches!(drain_half.read(&mut sink), Ok(1..)) {}
    });

    let start = Instant::now();
    for seq in 0..ops {
        let frame: Frame<NoMsg> = Frame::Cast {
            seq,
            dest,
            payload: payload.clone(),
        };
        write_frame(&mut sock, &wire::seal(TCP_PROBE_ARM, &frame))?;
    }
    // Delivery everywhere is the finish line: protocol-level exactly-once
    // (the A-Deliver test) caps each peer's log at `ops`, so equality is
    // completion, not a race.
    loop {
        if nodes.iter().all(|nd| nd.delivered().len() as u64 == ops) {
            break;
        }
        if start.elapsed() > PROBE_DEADLINE {
            for nd in nodes {
                nd.shutdown();
            }
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "tcp probe cluster failed to deliver within the deadline",
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let wall = start.elapsed();

    // A plain drop would not close the connection — the drain half holds a
    // dup of the same socket — so shut the socket down at the OS level,
    // which unblocks the drain thread's read with EOF.
    let _ = sock.shutdown(std::net::Shutdown::Both);
    drop(sock);
    let _ = drain.join();
    for nd in nodes {
        nd.shutdown();
    }
    Ok(TcpProbeResult { ops, wall })
}

/// Runs [`probe_tcp_once`] `repeats` times and returns the best-of
/// (minimum-wall) sample — same rationale as [`crate::perf::probe_events`]:
/// on a shared single-core box, noise only ever adds time.
///
/// # Errors
///
/// The first repeat that fails aborts the probe.
pub fn probe_tcp(ops: u64, repeats: usize) -> io::Result<TcpProbeResult> {
    let mut best: Option<TcpProbeResult> = None;
    for _ in 0..repeats.max(1) {
        let r = probe_tcp_once(ops)?;
        if best.map_or(true, |b| r.wall < b.wall) {
            best = Some(r);
        }
    }
    Ok(best.expect("at least one repeat"))
}

/// The tracked TCP measurement set, serializable to the flat JSON object
/// the perf-smoke TCP gate and the E16 table consume.
#[derive(Clone, Debug, PartialEq)]
pub struct TcpSnapshot {
    /// Casts fully delivered per second on the probe scenario.
    pub ops_per_sec: f64,
    /// Casts driven per repeat (a workload cross-check: rates are only
    /// comparable over the same op count).
    pub ops: u64,
    /// Peer count of the probe cluster (shape cross-check).
    pub peers: usize,
}

impl TcpSnapshot {
    /// Renders the snapshot as a JSON object (sorted keys, 3 decimals).
    pub fn to_json(&self, indent: &str) -> String {
        format!(
            "{{\n{i}\"ops\": {},\n{i}\"ops_per_sec\": {:.3},\n{i}\"peers\": {}\n{}}}",
            self.ops,
            self.ops_per_sec,
            self.peers,
            &indent[2..],
            i = indent,
        )
    }

    /// Parses the fields back out of JSON written by [`Self::to_json`] (or
    /// any JSON with the same flat `"key": number` shape).
    pub fn from_json(text: &str) -> Option<TcpSnapshot> {
        Some(TcpSnapshot {
            ops_per_sec: json_number(text, "ops_per_sec")?,
            ops: json_number(text, "ops")? as u64,
            peers: json_number(text, "peers")? as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_json_roundtrip() {
        let s = TcpSnapshot {
            ops_per_sec: 1234.567,
            ops: 500,
            peers: 4,
        };
        let back = TcpSnapshot::from_json(&s.to_json("  ")).expect("roundtrip");
        assert_eq!(back.ops, 500);
        assert_eq!(back.peers, 4);
        assert!((back.ops_per_sec - 1234.567).abs() < 0.01);
        assert_eq!(TcpSnapshot::from_json("{}"), None);
    }

    #[test]
    fn tcp_probe_smoke_delivers_everything() {
        // A tiny op count: this is a correctness smoke of the probe
        // plumbing (spawn, pipeline, finish line), not a measurement.
        let r = probe_tcp_once(8).expect("probe runs");
        assert_eq!(r.ops, 8);
        assert!(r.wall > Duration::ZERO);
        assert!(r.ops_per_sec() > 0.0);
    }
}
