//! Shared fixtures for the determinism test suites
//! (`engine_determinism.rs`, `trace_neutrality.rs`): an FNV-1a hash over
//! every recorded observable of a run's [`RunMetrics`], and the canonical
//! `3x3 a1-batched` probe scenario.

#![allow(dead_code)] // each test binary uses its own subset

use std::time::Duration;
use wamcast_core::{GenuineMulticast, MulticastConfig};
use wamcast_harness::scenario::RETRY_INTERVAL;
use wamcast_harness::workload::{all_group_pairs, poisson};
use wamcast_sim::{RunMetrics, SimConfig, Simulation};
use wamcast_types::{BatchConfig, GroupSet, Payload, Topology};

/// Runs the canonical `3x3 a1-batched` probe to quiescence: 3 groups x 3
/// processes, batched A1 (8 messages / 20 ms window) with the fuzz arm's
/// retry interval, ~2000 Poisson casts over one virtual second to every
/// group pair and to all groups, seed `0xE12`, no faults, send log off.
/// `trace_cap` > 0 turns the flight recorder on at that capacity.
/// Returns the steps dispatched and the events the recorder saw (retained
/// plus evicted; 0 untraced).
pub fn run_probe(trace_cap: usize) -> (u64, u64) {
    let topo = Topology::symmetric(3, 3);
    let mut dests: Vec<GroupSet> = all_group_pairs(&topo);
    dests.push(topo.all_groups());
    let casts = poisson(&topo, 2000.0, Duration::from_secs(1), &dests, 0xE12);
    let cfg = SimConfig::default().with_seed(0xE12).with_send_log(false);
    let batch = BatchConfig::new(8).with_max_delay(Duration::from_millis(20));
    let mcfg = MulticastConfig::default()
        .with_batch(batch)
        .with_retry(RETRY_INTERVAL);
    let mut sim = Simulation::new(topo, cfg, |p, t| GenuineMulticast::new(p, t, mcfg));
    if trace_cap > 0 {
        sim.enable_trace(trace_cap);
    }
    for c in &casts {
        sim.cast_at(c.at, c.caster, c.dest, Payload::new());
    }
    sim.run_to_quiescence();
    let recorded = sim.trace().map_or(0, |t| t.len() as u64 + t.evicted());
    (sim.metrics().steps, recorded)
}

/// Incremental FNV-1a over little-endian `u64`s.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Hashes every observable field of the metrics, in a fixed order: casts
/// (caster, destinations, time, stamp), deliveries (process, time,
/// stamp), per-process delivery sequences, send counters, sent/received
/// flags, adversary counters and end/last-send times.
pub fn fingerprint(m: &RunMetrics) -> u64 {
    let mut h = Fnv::new();
    h.u64(m.steps);
    h.u64(m.intra_sends);
    h.u64(m.inter_sends);
    h.u64(m.dropped_sends);
    h.u64(m.duplicated_sends);
    h.u64(m.end_time.as_nanos());
    h.u64(m.last_send_time.as_nanos());
    for (id, c) in &m.casts {
        h.u64(id.origin.index() as u64);
        h.u64(id.seq);
        h.u64(c.caster.index() as u64);
        for g in c.dest.iter() {
            h.u64(g.0 as u64);
        }
        h.u64(c.time.as_nanos());
        h.u64(c.stamp);
    }
    // The outer delivery map hashes; fingerprints must not depend on its
    // iteration artifact, so walk it in id order (matching the pre-swap
    // BTreeMap order the goldens were generated under).
    let mut ids: Vec<_> = m.deliveries.keys().copied().collect();
    ids.sort_unstable();
    for id in ids {
        let per_proc = &m.deliveries[&id];
        h.u64(id.origin.index() as u64);
        h.u64(id.seq);
        for (p, d) in per_proc {
            h.u64(p.index() as u64);
            h.u64(d.time.as_nanos());
            h.u64(d.stamp);
        }
    }
    for seq in &m.delivered_seq {
        h.u64(seq.len() as u64);
        for id in seq {
            h.u64(id.origin.index() as u64);
            h.u64(id.seq);
        }
    }
    for &b in &m.sent_any {
        h.u64(b as u64);
    }
    for &b in &m.received_any {
        h.u64(b as u64);
    }
    h.0
}
