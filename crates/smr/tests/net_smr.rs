//! The KV service on a `wamcast-net` `Cluster`: in-process TCP nodes, real
//! OS threads, real sockets, real timers, batching on. The same sans-io protocol values and the same
//! state machines as the simulator runs — this test is the proof that the
//! delivery→apply hookup and the history checker are runtime-agnostic.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wamcast_core::{GenuineMulticast, MulticastConfig, WithApply};
use wamcast_net::Cluster;
use wamcast_smr::{
    history, responder_shard, shared_replica, Command, History, OpRecord, ReplicaLog, ShardMap,
    SharedKv,
};
use wamcast_types::{BatchConfig, GroupId, SimTime, Topology};

/// Two shards × two replicas on threads, batching enabled, a closed-loop
/// command mix covering every variant including cross-shard transfers and
/// multi-puts. The run must converge and the recorded history must pass
/// the full checker (agreement, atomicity, linearizability,
/// serializability) — with the batch flush timer running on real time.
#[test]
fn threaded_cluster_with_batching_passes_the_history_checker() {
    let shards = ShardMap::new(2);
    let topo = Topology::symmetric(2, 2);
    let handles: Arc<Mutex<Vec<SharedKv>>> = Arc::new(Mutex::new(Vec::new()));
    let mcfg = MulticastConfig::default()
        .with_batch(BatchConfig::new(4).with_max_delay(Duration::from_millis(5)))
        .with_retry(Duration::from_millis(200));
    let started = Instant::now();
    let cluster = {
        let handles = Arc::clone(&handles);
        Cluster::spawn(topo, move |p, t| {
            let kv = shared_replica(t.group_of(p), shards);
            handles.lock().unwrap().push(Arc::clone(&kv));
            WithApply::new(GenuineMulticast::new(p, t, mcfg), kv)
        })
        .expect("spawn")
    };
    let handles = handles.lock().unwrap().clone();
    let now = |started: Instant| SimTime::from_nanos(started.elapsed().as_nanos() as u64);

    let k0 = shards.key_owned_by(GroupId(0), 1);
    let k1 = shards.key_owned_by(GroupId(1), 40);
    let script = [
        Command::Put { key: k0, value: 10 },
        Command::Put { key: k1, value: 20 },
        Command::Transfer {
            from: k0,
            to: k1,
            amount: 4,
        },
        Command::Incr { key: k0, delta: 1 },
        Command::MultiPut {
            entries: vec![(k0, 100), (k1, 200)],
        },
        Command::Get { key: k0 },
        Command::Transfer {
            from: k1,
            to: k0,
            amount: 50,
        },
        Command::Get { key: k1 },
    ];

    let mut ops: Vec<OpRecord> = Vec::new();
    for (i, cmd) in script.iter().enumerate() {
        let dest = shards.dest_of(cmd);
        // Rotate the caster across all four processes.
        let caster = wamcast_types::ProcessId((i % 4) as u32);
        let invoked_at = now(started);
        let id = cluster.cast(caster, dest, cmd.encode());
        cluster
            .await_delivery_everywhere(id, Duration::from_secs(20))
            .expect("closed-loop op must deliver");
        let responder = responder_shard(&shards, cmd, dest);
        let rp = cluster.topology().members(responder)[0];
        let response = handles[rp.index()]
            .lock()
            .unwrap()
            .response_of(id)
            .map(|a| a.response);
        assert!(response.is_some(), "responder must have applied op {i}");
        ops.push(OpRecord {
            id,
            cmd: cmd.clone(),
            dest,
            client: 0,
            invoked_at,
            responded_at: Some(now(started)),
            response,
        });
    }

    let replicas: Vec<ReplicaLog> = cluster
        .topology()
        .processes()
        .map(|p| ReplicaLog::capture(p, &handles[p.index()].lock().unwrap()))
        .collect();
    cluster.shutdown();

    // Semantic spot checks before the full verdict.
    let g0 = handles[0].lock().unwrap();
    assert_eq!(
        g0.value(k0),
        Some(150),
        "100 (multiput) + 50 (transfer back)"
    );
    drop(g0);
    let hist = History {
        shards,
        ops,
        replicas,
    };
    assert_eq!(hist.committed(), script.len());
    let report = history::check(&hist);
    report.assert_ok();
    assert_eq!(report.shards_checked, 2);
}
