//! Run the paper's Algorithm A2 on real OS threads and sockets.
//!
//! Run with: `cargo run --example threaded_cluster`
//!
//! The protocol cores are sans-io; everything else in this repository runs
//! them under the deterministic simulator. This example hosts the *same*
//! `RoundBroadcast` values as `wamcast-net` TCP nodes on loopback (one
//! event-loop thread per process, real sockets, real timers) to show the
//! cores are runtime-agnostic, and exercises crash handling live.

use std::time::Duration;
use wamcast::net::Cluster;
use wamcast::types::{Payload, ProcessId};
use wamcast::{RoundBroadcast, Topology};

fn main() {
    // 2 sites × 3 replicas = 6 nodes.
    let topo = Topology::symmetric(2, 3);
    let cluster = Cluster::spawn(topo, RoundBroadcast::new).expect("spawn");
    let everyone = cluster.topology().all_groups();

    // Broadcast a burst from several processes.
    let mut ids = Vec::new();
    for i in 0..8u32 {
        let caster = ProcessId(i % 6);
        ids.push(cluster.cast(
            caster,
            everyone,
            Payload::from(format!("op{i}").into_bytes()),
        ));
        std::thread::sleep(Duration::from_millis(5));
    }
    for &id in &ids {
        cluster
            .await_delivery_everywhere(id, Duration::from_secs(10))
            .expect("delivery");
    }

    // All six nodes hold the same total order.
    let reference: Vec<_> = cluster
        .delivered(ProcessId(0))
        .iter()
        .map(|m| m.id)
        .collect();
    for p in cluster.topology().processes() {
        let seq: Vec<_> = cluster.delivered(p).iter().map(|m| m.id).collect();
        assert_eq!(seq[..reference.len()], reference[..], "{p} diverged");
    }
    println!(
        "6 nodes agreed on a total order of {} messages:",
        reference.len()
    );
    for m in &reference {
        println!("  {m}");
    }

    // Crash a process and keep going: the survivors re-coordinate.
    cluster.crash(ProcessId(3));
    let id = cluster.cast(ProcessId(0), everyone, Payload::from_static(b"after-crash"));
    cluster
        .await_delivery_everywhere(id, Duration::from_secs(10))
        .expect("delivery despite crash");
    println!("\ncrashed p3; message {id} still delivered by all survivors");

    cluster.shutdown();
    println!("cluster shut down cleanly");
}
