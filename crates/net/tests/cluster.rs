//! Integration tests for `Cluster`: the same protocol cores that run under
//! the simulator, as in-process TCP nodes on real threads and loopback
//! sockets.

use std::time::Duration;
use wamcast_core::{GenuineMulticast, MulticastConfig, RoundBroadcast};
use wamcast_net::Cluster;
use wamcast_types::{FaultPlan, GroupId, GroupSet, Payload, ProcessId, SimTime, Topology};

#[test]
fn a2_total_order_on_threads() {
    let cluster = Cluster::spawn(Topology::symmetric(2, 2), RoundBroadcast::new).expect("spawn");
    let dest = cluster.topology().all_groups();
    let mut ids = Vec::new();
    for i in 0..6u32 {
        ids.push(cluster.cast(ProcessId(i % 4), dest, Payload::new()));
        std::thread::sleep(Duration::from_millis(2));
    }
    for &id in &ids {
        cluster
            .await_delivery_everywhere(id, Duration::from_secs(10))
            .expect("delivered");
    }
    let reference: Vec<_> = cluster
        .delivered(ProcessId(0))
        .iter()
        .map(|m| m.id)
        .collect();
    assert_eq!(reference.len(), 6);
    for p in cluster.topology().processes() {
        let seq: Vec<_> = cluster.delivered(p).iter().map(|m| m.id).collect();
        assert_eq!(seq, reference, "{p} diverged");
    }
    cluster.shutdown();
}

#[test]
fn a1_genuine_multicast_on_threads() {
    let cluster = Cluster::spawn(Topology::symmetric(3, 2), |p, t| {
        GenuineMulticast::new(p, t, MulticastConfig::default())
    })
    .expect("spawn");
    let d01 = GroupSet::from_iter([GroupId(0), GroupId(1)]);
    let a = cluster.cast(ProcessId(0), d01, Payload::from_static(b"a"));
    let b = cluster.cast(ProcessId(2), d01, Payload::from_static(b"b"));
    for &id in &[a, b] {
        cluster
            .await_delivery_everywhere(id, Duration::from_secs(10))
            .expect("delivered");
    }
    // Addressed processes agree on the order; bystanders (g2) saw nothing.
    let p0: Vec<_> = cluster
        .delivered(ProcessId(0))
        .iter()
        .map(|m| m.id)
        .collect();
    let p3: Vec<_> = cluster
        .delivered(ProcessId(3))
        .iter()
        .map(|m| m.id)
        .collect();
    assert_eq!(p0, p3);
    assert!(cluster.delivered(ProcessId(4)).is_empty());
    assert!(cluster.delivered(ProcessId(5)).is_empty());
    cluster.shutdown();
}

#[test]
fn a2_survives_crash_on_threads() {
    let cluster = Cluster::spawn(Topology::symmetric(2, 3), RoundBroadcast::new).expect("spawn");
    let dest = cluster.topology().all_groups();
    let warm = cluster.cast(ProcessId(0), dest, Payload::new());
    cluster
        .await_delivery_everywhere(warm, Duration::from_secs(10))
        .expect("warm-up delivered");
    // Crash g1's ballot-0 coordinator; survivors must still make progress.
    cluster.crash(ProcessId(3));
    let id = cluster.cast(ProcessId(0), dest, Payload::new());
    cluster
        .await_delivery_everywhere(id, Duration::from_secs(15))
        .expect("delivered despite crash");
    assert!(!cluster.delivered(ProcessId(4)).iter().all(|m| m.id != id));
    cluster.shutdown();
}

#[test]
fn a1_with_retry_survives_lossy_duplicating_links() {
    // The same FaultPlan vocabulary the simulator interprets, applied at
    // the socket-send layer: a 60%-lossy + duplicating first 300 ms, clean
    // afterwards. A1's retransmission mode must converge to the same total
    // order everywhere.
    let until = SimTime::from_millis(300);
    let mut plan = FaultPlan::none().with_duplication(0.5, SimTime::ZERO, until);
    for from in 0..4u32 {
        for to in 0..4u32 {
            if from != to {
                plan = plan.with_drop_during(
                    ProcessId(from),
                    ProcessId(to),
                    0.6,
                    SimTime::ZERO,
                    until,
                );
            }
        }
    }
    let cluster = Cluster::spawn_faulty(Topology::symmetric(2, 2), plan, 0xFA17, |p, t| {
        GenuineMulticast::new(
            p,
            t,
            MulticastConfig::default().with_retry(Duration::from_millis(40)),
        )
    })
    .expect("spawn");
    let dest = cluster.topology().all_groups();
    let mut ids = Vec::new();
    for i in 0..6u32 {
        ids.push(cluster.cast(ProcessId(i % 4), dest, Payload::new()));
        std::thread::sleep(Duration::from_millis(5));
    }
    for &id in &ids {
        cluster
            .await_delivery_everywhere(id, Duration::from_secs(30))
            .expect("delivered despite loss and duplication");
    }
    let reference: Vec<_> = cluster
        .delivered(ProcessId(0))
        .iter()
        .map(|m| m.id)
        .collect();
    assert_eq!(reference.len(), 6, "every cast delivered exactly once");
    for p in cluster.topology().processes() {
        let seq: Vec<_> = cluster.delivered(p).iter().map(|m| m.id).collect();
        assert_eq!(seq, reference, "{p} diverged under faults");
    }
    cluster.shutdown();
}

#[test]
fn faulty_cluster_executes_planned_crashes() {
    // A plan-scheduled crash behaves like Cluster::crash: survivors are
    // notified and keep ordering (2 groups x 3 so the group keeps its
    // majority).
    let plan = FaultPlan::none().with_crash(SimTime::from_millis(80), ProcessId(3));
    let cluster = Cluster::spawn_faulty(Topology::symmetric(2, 3), plan, 1, |p, t| {
        RoundBroadcast::new(p, t).with_retry(Duration::from_millis(40))
    })
    .expect("spawn");
    let dest = cluster.topology().all_groups();
    let warm = cluster.cast(ProcessId(0), dest, Payload::new());
    cluster
        .await_delivery_everywhere(warm, Duration::from_secs(10))
        .expect("warm-up delivered");
    std::thread::sleep(Duration::from_millis(120)); // crash fires
    let id = cluster.cast(ProcessId(0), dest, Payload::new());
    cluster
        .await_delivery_everywhere(id, Duration::from_secs(15))
        .expect("delivered despite planned crash");
    assert!(cluster.delivered(ProcessId(4)).iter().any(|m| m.id == id));
    cluster.shutdown();
}

#[test]
fn shutdown_does_not_wait_for_far_future_planned_crashes() {
    // The crash watchdog sleeps toward a crash a minute out; shutdown must
    // interrupt that sleep, not serve it.
    let plan = FaultPlan::none().with_crash(SimTime::from_millis(60_000), ProcessId(0));
    let cluster = Cluster::spawn_faulty(Topology::symmetric(2, 2), plan, 1, RoundBroadcast::new)
        .expect("spawn");
    let dest = cluster.topology().all_groups();
    let id = cluster.cast(ProcessId(0), dest, Payload::new());
    cluster
        .await_delivery_everywhere(id, Duration::from_secs(10))
        .expect("delivered");
    let begun = std::time::Instant::now();
    cluster.shutdown();
    assert!(
        begun.elapsed() < Duration::from_secs(5),
        "shutdown must not sleep out the crash schedule"
    );
}

#[test]
fn shutdown_is_clean_with_pending_timers() {
    // A paced A2 arms timers; shutdown must not hang on them.
    let cluster = Cluster::spawn(Topology::symmetric(2, 1), |p, t| {
        RoundBroadcast::with_pacing(p, t, Duration::from_millis(50))
    })
    .expect("spawn");
    let dest = cluster.topology().all_groups();
    let _ = cluster.cast(ProcessId(0), dest, Payload::new());
    std::thread::sleep(Duration::from_millis(30));
    cluster.shutdown(); // must return promptly
}

#[test]
fn batched_a1_delivers_in_order_on_threads() {
    // The batching layer runs unchanged on the socket runtime: the flush
    // timer is a real timer here, so a pooled batch below the size trigger
    // still proposes within max_delay. Two concurrent casters, batch size
    // large enough that the delay trigger does the flushing.
    use wamcast_types::BatchConfig;

    let batch = BatchConfig::new(16).with_max_delay(Duration::from_millis(10));
    let cluster = Cluster::spawn(Topology::symmetric(2, 2), move |p, t| {
        GenuineMulticast::new(p, t, MulticastConfig::default().with_batch(batch))
    })
    .expect("spawn");
    let dest = cluster.topology().all_groups();
    let mut ids = Vec::new();
    for i in 0..8u32 {
        ids.push(cluster.cast(ProcessId(i % 4), dest, Payload::new()));
    }
    for &id in &ids {
        cluster
            .await_delivery_everywhere(id, Duration::from_secs(10))
            .expect("batched delivery");
    }
    // Total order across all processes (broadcast destinations).
    let reference: Vec<_> = cluster
        .delivered(ProcessId(0))
        .iter()
        .map(|m| m.id)
        .collect();
    assert_eq!(reference.len(), 8);
    for p in cluster.topology().processes() {
        let seq: Vec<_> = cluster.delivered(p).iter().map(|m| m.id).collect();
        assert_eq!(seq, reference, "{p} diverged under batching");
    }
    cluster.shutdown();
}

#[test]
fn ring_multicast_with_retry_survives_lossy_links_on_threads() {
    // A registry-hosted Figure 1 baseline on the socket runtime, under
    // the socket-send adversary: the ring's retry mode (hand-off
    // retransmission, positive-ack Final retransmission, consensus ticks)
    // must ride out a 50%-lossy first 300 ms and still converge to one
    // total order at every addressed process.
    use wamcast_baselines::RingMulticast;

    let until = SimTime::from_millis(300);
    let mut plan = FaultPlan::none().with_duplication(0.3, SimTime::ZERO, until);
    for from in 0..6u32 {
        for to in 0..6u32 {
            if from != to {
                plan = plan.with_drop_during(
                    ProcessId(from),
                    ProcessId(to),
                    0.5,
                    SimTime::ZERO,
                    until,
                );
            }
        }
    }
    let cluster = Cluster::spawn_faulty(Topology::symmetric(3, 2), plan, 0x4417, |p, t| {
        RingMulticast::new(p, t).with_retry(Duration::from_millis(40))
    })
    .expect("spawn");
    // Mixed destinations: a group pair and the full set, from casters in
    // different groups (the caster need not be addressed).
    let d01 = GroupSet::from_iter([GroupId(0), GroupId(1)]);
    let d12 = GroupSet::from_iter([GroupId(1), GroupId(2)]);
    let all = cluster.topology().all_groups();
    let mut ids = Vec::new();
    for i in 0..4u32 {
        ids.push(cluster.cast(ProcessId(i % 6), d01, Payload::new()));
        ids.push(cluster.cast(ProcessId((i + 3) % 6), d12, Payload::new()));
        ids.push(cluster.cast(ProcessId((i + 5) % 6), all, Payload::new()));
        std::thread::sleep(Duration::from_millis(10));
    }
    for &id in &ids {
        cluster
            .await_delivery_everywhere(id, Duration::from_secs(30))
            .expect("delivered despite loss");
    }
    // Processes of g1 are addressed by everything: their sequences are the
    // total order every other process's projection must agree with.
    let reference: Vec<_> = cluster
        .delivered(ProcessId(2))
        .iter()
        .map(|m| m.id)
        .collect();
    assert_eq!(reference.len(), 12, "g1 delivers every cast exactly once");
    let seq3: Vec<_> = cluster
        .delivered(ProcessId(3))
        .iter()
        .map(|m| m.id)
        .collect();
    assert_eq!(seq3, reference, "g1 members agree");
    for p in cluster.topology().processes() {
        let seq: Vec<_> = cluster.delivered(p).iter().map(|m| m.id).collect();
        let projected: Vec<_> = reference
            .iter()
            .copied()
            .filter(|id| seq.contains(id))
            .collect();
        assert_eq!(seq, projected, "{p}'s order must project from g1's");
    }
    cluster.shutdown();
}
