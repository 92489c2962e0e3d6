//! In-process smoke of the TCP runtime: `TcpNode`s in the test process,
//! talking over real localhost sockets. The multi-*process*
//! version (spawned peers, `kill -9` chaos) lives in the harness crate,
//! which owns the `peer` binary; this tier proves the socket plumbing —
//! framing, dial/redial, cast/ack, hostile casts, service requests — with
//! no process management in the way. Protocol-level behaviour over
//! sockets (ordering, genuineness, crashes, faults) is tested through
//! `Cluster` in `tests/cluster.rs`.

use std::io;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wamcast_core::{GenuineMulticast, MulticastConfig, RoundBroadcast};
use wamcast_net::tcp::{self, null_service, SharedDeliveries, TcpClient, TcpNodeConfig};
use wamcast_types::{GroupId, GroupSet, Payload, ProcessId, Topology};

#[test]
fn hostile_cast_destinations_are_dropped_and_the_node_stays_live() {
    // A client cast naming no group, or a group outside the topology, has
    // no route: the node must drop it unacknowledged and keep ordering, so
    // the valid cast sent after them on the same connection is delivered.
    // One node of a 2-group A1 topology suffices: a cast to its own group
    // completes locally.
    let topo = Arc::new(Topology::symmetric(2, 1));
    let addrs = tcp::reserve_local_addrs(topo.num_processes()).expect("reserve");
    let delivered: SharedDeliveries = Arc::new(Mutex::new(Vec::new()));
    let node = tcp::serve(
        TcpNodeConfig {
            me: ProcessId(0),
            topo: Arc::clone(&topo),
            addrs: addrs.clone(),
            arm: 3,
            faults: None,
            trace: None,
        },
        GenuineMulticast::new(ProcessId(0), &topo, MulticastConfig::default()),
        Arc::clone(&delivered),
        null_service(),
    )
    .expect("serve");
    let mut client = TcpClient::new(addrs[0], 3, Duration::from_millis(500));
    let hostile = [GroupSet::new(), GroupSet::singleton(GroupId(5))];
    let acks: Vec<io::Result<_>> = hostile
        .iter()
        .zip(1u64..)
        .map(|(&dest, seq)| client.cast(seq, dest, Payload::from_static(b"bad")))
        .collect();
    let id = client
        .cast(
            0,
            GroupSet::singleton(GroupId(0)),
            Payload::from_static(b"ok"),
        )
        .expect("valid cast acknowledged");
    let deadline = Instant::now() + Duration::from_secs(10);
    while delivered.lock().unwrap().is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let ids: Vec<_> = delivered.lock().unwrap().iter().map(|m| m.id).collect();
    assert_eq!(
        ids,
        vec![id],
        "the valid cast after the hostile ones must deliver"
    );
    assert!(
        acks.iter().all(Result::is_err),
        "hostile casts must not be acknowledged: {acks:?}"
    );
    node.shutdown();
}

#[test]
fn serving_more_groups_than_wire_v1_addresses_is_refused() {
    // Wire v1 encodes destination sets as a u64 mask, so a 65-group node
    // could not send its first message: serve refuses it up front.
    let topo = Arc::new(Topology::symmetric(65, 1));
    let addrs = tcp::reserve_local_addrs(topo.num_processes()).expect("reserve");
    let served = tcp::serve(
        TcpNodeConfig {
            me: ProcessId(0),
            topo: Arc::clone(&topo),
            addrs,
            arm: 0,
            faults: None,
            trace: None,
        },
        RoundBroadcast::new(ProcessId(0), &topo),
        Arc::new(Mutex::new(Vec::new())),
        null_service(),
    );
    let err = served.err().expect("a 65-group topology must be refused");
    assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
}

#[test]
fn service_requests_answered_on_reader_thread() {
    let topo = Arc::new(Topology::symmetric(1, 1));
    let addrs = tcp::reserve_local_addrs(1).expect("reserve");
    let delivered: SharedDeliveries = Arc::new(Mutex::new(Vec::new()));
    let node = tcp::serve(
        TcpNodeConfig {
            me: ProcessId(0),
            topo: Arc::clone(&topo),
            addrs: addrs.clone(),
            arm: 0,
            faults: None,
            trace: None,
        },
        RoundBroadcast::new(ProcessId(0), &topo),
        Arc::clone(&delivered),
        Arc::new(|body: &[u8]| body.iter().rev().copied().collect()),
    )
    .expect("serve");
    let mut client = TcpClient::new(addrs[0], 0, Duration::from_secs(5));
    assert_eq!(
        client.request(vec![1, 2, 3]).expect("request"),
        vec![3, 2, 1]
    );
    // Wrong-arm clients get no reply (their frames are rejected at decode).
    let mut wrong = TcpClient::new(addrs[0], 9, Duration::from_millis(300));
    assert!(wrong.request(vec![0]).is_err());
    node.shutdown();
}

#[test]
fn shutdown_frame_ends_wait() {
    let topo = Arc::new(Topology::symmetric(1, 1));
    let addrs = tcp::reserve_local_addrs(1).expect("reserve");
    let delivered: SharedDeliveries = Arc::new(Mutex::new(Vec::new()));
    let node = tcp::serve(
        TcpNodeConfig {
            me: ProcessId(0),
            topo: Arc::clone(&topo),
            addrs: addrs.clone(),
            arm: 1,
            faults: None,
            trace: None,
        },
        RoundBroadcast::new(ProcessId(0), &topo),
        delivered,
        null_service(),
    )
    .expect("serve");
    let addr = addrs[0];
    let h = std::thread::spawn(move || {
        let mut client = TcpClient::new(addr, 1, Duration::from_secs(5));
        std::thread::sleep(Duration::from_millis(100));
        client.shutdown_peer().expect("shutdown frame");
    });
    node.wait(); // returns once the Shutdown frame lands
    h.join().unwrap();
}
