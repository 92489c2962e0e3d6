//! Experiment harness reproducing the evaluation artifacts of Schiper &
//! Pedone (PODC 2007).
//!
//! The paper is a protocol paper; its quantitative artifacts are:
//!
//! * **Figure 1(a)** — atomic multicast comparison: latency degree and
//!   inter-group message count for \[4\], \[10\], \[5\], A1 and \[1\];
//! * **Figure 1(b)** — atomic broadcast comparison: \[12\], \[13\], A2, \[1\];
//! * **Theorems 4.1 / 5.1 / 5.2** — witness runs with Δ = 2, 1, 2;
//! * **Propositions 3.1–3.3** — lower bounds, corroborated empirically;
//! * the **§5.3 remark** — broadcast frequency vs. round duration governs
//!   when A2 stays in its optimal (all-rounds-useful, Δ=1) regime.
//!
//! Each artifact has a binary (see `src/bin/`) that prints a
//! paper-vs-measured table; `EXPERIMENTS.md` records the outputs.
//!
//! The library part hosts the shared machinery: the stack registry
//! ([`registry`] — the single protocol-arm dispatch site), scenario
//! runners ([`measure`]), the Figure 1 row definitions ([`figure1`]) and
//! their measured counterpart ([`figure1_measured`]), parameter sweeps
//! ([`sweeps`]) and a plain-text table printer ([`table`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod figure1;
pub mod figure1_measured;
pub mod forensics;
pub mod measure;
pub mod parallel;
pub mod perf;
pub mod registry;
pub mod scale;
pub mod scenario;
pub mod smr;
pub mod sweeps;
pub mod table;
pub mod tcp_host;
pub mod tcpperf;
pub mod throughput;
pub mod workload;

pub use figure1::{figure1a_rows, figure1b_rows, Figure1Row};
pub use measure::{measure_broadcast_steady, measure_one_multicast, BroadcastSteady, OneShot};
pub use registry::{ProtocolArm, StackRegistry};
pub use scale::{latency_registry, run_cell, ScaleCell, ScaleConfig};
pub use scenario::{run_scenario, run_scenario_full, RunSpec, ScenarioOutcome};
pub use smr::{
    response_latency_histogram, run_smr_scenario, run_smr_sim, smr_throughput_once, InjectedBug,
    SmrConfig, SmrOutcome, SmrThroughputCell,
};
pub use table::Table;
pub use tcp_host::{run_smr_tcp, spawn_smr_peer, KvPeer, TcpRunConfig, SMR_ARM};
pub use throughput::{throughput_once, throughput_sweep, ThroughputCell};
