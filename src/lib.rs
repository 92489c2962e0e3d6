//! # wamcast
//!
//! A production-quality Rust reproduction of **Schiper & Pedone, *Optimal
//! Atomic Broadcast and Multicast Algorithms for Wide Area Networks* (PODC
//! 2007)** — the paper that pinned down the latency cost of total order in
//! WANs:
//!
//! * **genuine atomic multicast** needs at least **2** inter-group delays
//!   (Proposition 3.1), and [`GenuineMulticast`] (Algorithm A1) achieves it;
//! * **atomic broadcast** can be done in **1** inter-group delay by being
//!   proactive ([`RoundBroadcast`], Algorithm A2) — but any *quiescent*
//!   algorithm must sometimes pay **2** (Theorem 5.2);
//! * the gap is a genuine trade-off between latency and message complexity
//!   (genuineness), not an artifact.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`types`] | ids, group sets, topologies, messages, the §2.3 latency-degree clock, the sans-io [`Protocol`] abstraction, the [`BatchConfig`] batching policy |
//! | [`sim`] | deterministic discrete-event WAN simulator + invariant checkers |
//! | [`consensus`] | intra-group multi-instance Paxos (batch-aware: forwarded proposals merge into the coordinator's `Accept`) + heartbeat failure detector |
//! | [`rmcast`] | non-uniform and uniform reliable multicast |
//! | [`core`] | **the paper's algorithms**: A1, A2, and the non-genuine reduction — each with the consensus-amortizing batching layer (`DESIGN.md` §"Batching layer") |
//! | [`baselines`] | Skeen, Fritzke \[5\], ring \[4\], Rodrigues \[10\], optimistic \[12\], sequencer \[13\], deterministic merge \[1\] |
//! | [`net`] | the wall-clock TCP runtime: the same protocol cores over real sockets, threads and timers, as one OS process per node or an in-process `Cluster` |
//! | [`smr`] | the service layer: a partitioned, replicated KV store routed by genuine multicast, with a history-based consistency checker (`DESIGN.md` §7) |
//! | [`harness`] | the experiment harness regenerating Figure 1, the theorem runs, the E9 batching throughput sweep, and the E11 closed-loop KV driver |
//!
//! # Batching
//!
//! Both algorithms pay one intra-group consensus instance per ordering
//! step; under heavy traffic that per-instance cost dominates. The batching
//! layer (ISSUE 1) amortizes it: a [`BatchConfig`] pools messages until a
//! size/byte trigger or a flush timer fires, consensus decides the pooled
//! *batch*, the Paxos coordinator merges batches forwarded by other
//! members into its proposal, and A1's `(TS, m)` exchange carries whole
//! batches. Every §2.2 ordering invariant and latency-degree result holds
//! under any batch policy (the specific order among concurrent messages
//! may differ from the eager schedule's, as with any scheduling change) —
//! only wall-clock queueing delay (bounded by the window) trades against
//! throughput. `cargo run --release --bin throughput_sweep` prints the
//! msgs/sec vs. batch-size table; see `DESIGN.md` and `EXPERIMENTS.md` §E9.
//!
//! # Quickstart
//!
//! ```
//! use wamcast::{GenuineMulticast, MulticastConfig};
//! use wamcast::sim::{Simulation, SimConfig};
//! use wamcast::types::{GroupId, GroupSet, Payload, ProcessId, SimTime, Topology};
//!
//! // Three sites, two replicas each.
//! let topo = Topology::symmetric(3, 2);
//! let mut sim = Simulation::new(topo, SimConfig::default(), |p, t| {
//!     GenuineMulticast::new(p, t, MulticastConfig::default())
//! });
//!
//! // Atomically multicast an update to sites 0 and 2 only.
//! let dest = GroupSet::from_iter([GroupId(0), GroupId(2)]);
//! let id = sim.cast_at(SimTime::ZERO, ProcessId(0), dest, Payload::from_static(b"x=1"));
//! sim.run_to_quiescence();
//!
//! // Optimal: two inter-group delays (Theorem 4.1 / Proposition 3.1).
//! assert_eq!(sim.metrics().latency_degree(id), Some(2));
//! // Genuine: site 1 neither sent nor received anything.
//! assert!(!sim.metrics().sent_any[2] && !sim.metrics().received_any[2]);
//! ```
//!
//! See `examples/` for larger scenarios and `DESIGN.md` / `EXPERIMENTS.md`
//! for the reproduction inventory and measured results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use wamcast_baselines as baselines;
pub use wamcast_consensus as consensus;
pub use wamcast_core as core;
pub use wamcast_harness as harness;
pub use wamcast_net as net;
pub use wamcast_rmcast as rmcast;
pub use wamcast_sim as sim;
pub use wamcast_smr as smr;
pub use wamcast_types as types;

pub use wamcast_core::{
    GenuineMulticast, MulticastConfig, NonGenuineMulticast, RoundBroadcast, WithApply,
};
pub use wamcast_types::{BatchConfig, Protocol, StateMachine, Topology};
