//! The two simulator workloads: `a1-3x3` (batched A1, every cast global,
//! handler work dominates) and `a2-32g` (A2 on 32 × 16, huge fan-out, the
//! event queue and dispatch dominate).
//!
//! A run repeats one seeded input as many times as `--seconds` allows.
//! Each repetition sets up afresh (plan, `Simulation`, `cast_at` for every
//! cast: the timed set-up) and then runs to quiescence in slices of
//! [`SLICE`] virtual time, timing each slice. Repetitions must be
//! identical, which is checked, so every count the run reports is exact
//! however many repetitions fit, and slice `k` does the same work in
//! every repetition.
//!
//! Traced runs alternate bare and shimmed repetitions: the first bare one
//! also counts allocations, the shimmed ones give the per-layer split, and
//! the two kinds are compared for neutrality.

use crate::alloc;
use crate::report::{Metrics, Outcome};
use crate::shim::{Kind, Stats, Timed};
use crate::stats::{median, peak_rss_mb, ratio, reset_peak_rss, this_thread_cpu_ns};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wamcast_core::{GenuineMulticast, MulticastConfig, RoundBroadcast};
use wamcast_harness::registry::StackRegistry;
use wamcast_harness::scale::{latency_registry, plan_for};
use wamcast_harness::scenario::RETRY_INTERVAL;
use wamcast_harness::workload::{all_group_pairs, poisson, PlannedCast};
use wamcast_harness::ScaleConfig;
use wamcast_metrics::{bucket_high, MetricsRegistry};
use wamcast_sim::{invariants, NetConfig, RunError, RunMetrics, SimConfig, Simulation};
use wamcast_types::wire::Wire;
use wamcast_types::{BatchConfig, MsgClass, Payload, ProcessId, Protocol, SimTime, Topology};

/// Arm id the shim seals replayed frames with (any id: it only tags the
/// envelope, which has a fixed length).
const REPLAY_ARM: u8 = 1;

/// Virtual time per timed slice of a repetition: a few milliseconds of
/// wall time on both workloads, so that the slice-wise best (see
/// [`best_slices`]) finds the host's quiet moments.
const SLICE: Duration = Duration::from_millis(50);

/// Set-ups timed for `setup_s` at the start of a run.
const SETUPS: usize = 15;

/// Virtual seconds of Poisson arrivals in one `a1-3x3` repetition.
const A1_HORIZON: Duration = Duration::from_secs(4);

/// Virtual seconds of arrivals in one `a2-32g` repetition: three times
/// the E14 cell's 2 s, so that how casts fall into A2's rounds varies
/// less from seed to seed.
const A2_HORIZON: Duration = Duration::from_secs(6);

/// Which simulator workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimWorkload {
    /// Batched A1 on 3 × 3.
    A1,
    /// A2 on 32 × 16.
    A2,
}

/// Everything one repetition produced.
struct Rep {
    run_s: f64,
    /// Wall and thread-CPU seconds of each [`SLICE`] of the run, in order.
    slices: Vec<(f64, f64)>,
    casts: u64,
    setup_cast_ns: f64,
    peak_mb: f64,
    metrics: RunMetrics,
}

/// The seeded input of a run.
struct Input {
    topo: Arc<Topology>,
    plan: Vec<PlannedCast>,
    seed: u64,
}

fn input(w: SimWorkload, seed: u64) -> Input {
    match w {
        SimWorkload::A1 => {
            let topo = Topology::symmetric(3, 3);
            let mut dests = all_group_pairs(&topo);
            dests.push(topo.all_groups());
            let plan = poisson(&topo, 2000.0, A1_HORIZON, &dests, seed);
            Input {
                topo: Arc::new(topo),
                plan,
                seed,
            }
        }
        SimWorkload::A2 => {
            let cfg = ScaleConfig {
                seed,
                horizon: A2_HORIZON,
                ..ScaleConfig::default()
            };
            let topo = Topology::symmetric(32, cfg.per_group);
            let arm = StackRegistry::standard()
                .by_name("a2")
                .expect("the registry hosts a2");
            let plan = plan_for(arm, &topo, &cfg);
            Input {
                topo: Arc::new(topo),
                plan,
                seed,
            }
        }
    }
}

fn a1_config() -> MulticastConfig {
    MulticastConfig::default()
        .with_batch(BatchConfig::new(8).with_max_delay(Duration::from_millis(20)))
        .with_retry(RETRY_INTERVAL)
}

/// A repetition's set-up: the seeded input, the `Simulation` and one
/// `cast_at` per planned cast. Returns the simulation, the number of casts
/// and the nanoseconds per `cast_at`.
fn build<P: Protocol>(
    w: SimWorkload,
    seed: u64,
    factory: impl FnMut(ProcessId, &Topology) -> P,
) -> (Simulation<P>, u64, f64) {
    let inp = input(w, seed);
    let cfg = SimConfig::default()
        .with_net(NetConfig::wan(Duration::from_millis(100)))
        .with_seed(inp.seed)
        .with_send_log(false);
    let mut sim = Simulation::new_shared(Arc::clone(&inp.topo), cfg, factory);
    let tc = Instant::now();
    for c in &inp.plan {
        sim.cast_at(c.at, c.caster, c.dest, Payload::new());
    }
    let casts = inp.plan.len() as u64;
    (sim, casts, ratio(tc.elapsed().as_nanos() as f64, casts as f64))
}

/// Seconds one bare set-up takes ([`build`], the simulation dropped
/// after the clock stops).
fn setup_s(w: SimWorkload, seed: u64) -> f64 {
    fn time<P: Protocol>(w: SimWorkload, seed: u64, f: fn(ProcessId, &Topology) -> P) -> f64 {
        let t = Instant::now();
        let built = build(w, seed, f);
        let s = t.elapsed().as_secs_f64();
        drop(built);
        s
    }
    match w {
        SimWorkload::A1 => time(w, seed, a1_factory),
        SimWorkload::A2 => time(w, seed, a2_factory),
    }
}

/// One repetition with protocol factory `factory`: set-up, then the run
/// (timed). Returns `Err` on a run that does not drain.
fn rep<P: Protocol>(
    w: SimWorkload,
    seed: u64,
    factory: impl FnMut(ProcessId, &Topology) -> P,
    count_allocs: bool,
) -> Result<(Rep, u64, u64), String> {
    reset_peak_rss();
    let (mut sim, casts, setup_cast_ns) = build(w, seed, factory);

    let mut slices = Vec::new();
    let mut run = || -> Result<(), RunError> {
        let mut until = SimTime::ZERO;
        loop {
            until += SLICE;
            let cpu0 = this_thread_cpu_ns();
            let t = Instant::now();
            let drained = sim.try_run_until(until)?;
            let wall = t.elapsed().as_secs_f64();
            slices.push((wall, (this_thread_cpu_ns() - cpu0) as f64 / 1e9));
            if drained {
                return Ok(());
            }
        }
    };
    let t1 = Instant::now();
    let (res, allocs, bytes) = if count_allocs {
        alloc::counting(&mut run)
    } else {
        (run(), 0, 0)
    };
    let run_s = t1.elapsed().as_secs_f64();
    let peak_mb = peak_rss_mb();
    res.map_err(|e| format!("run did not drain: {e}"))?;
    // Dropping the simulation drops the shims, merging their counters.
    let metrics = sim.into_metrics();
    Ok((
        Rep {
            run_s,
            slices,
            casts,
            setup_cast_ns,
            peak_mb,
            metrics,
        },
        allocs,
        bytes,
    ))
}

fn bare_rep(w: SimWorkload, seed: u64, count_allocs: bool) -> Result<(Rep, u64, u64), String> {
    match w {
        SimWorkload::A1 => rep(w, seed, a1_factory, count_allocs),
        SimWorkload::A2 => rep(w, seed, a2_factory, count_allocs),
    }
}

fn a1_factory(p: ProcessId, t: &Topology) -> GenuineMulticast {
    GenuineMulticast::new(p, t, a1_config())
}

fn a2_factory(p: ProcessId, t: &Topology) -> RoundBroadcast {
    RoundBroadcast::with_pacing(p, t, Duration::from_millis(10))
}

fn shim<P: Protocol + Send + 'static>(inner: P, p: ProcessId, sink: &Arc<Mutex<Stats>>) -> Timed<P>
where
    P::Msg: Wire,
{
    Timed::new(inner, p, REPLAY_ARM, Arc::clone(sink), None)
}

fn traced_rep(w: SimWorkload, seed: u64) -> Result<(Rep, Stats), String> {
    let sink = Arc::new(Mutex::new(Stats::default()));
    let (r, _, _) = match w {
        SimWorkload::A1 => rep(
            w,
            seed,
            |p, t| shim(a1_factory(p, t), p, &sink),
            false,
        )?,
        SimWorkload::A2 => rep(w, seed, |p, t| shim(a2_factory(p, t), p, &sink), false)?,
    };
    let stats = std::mem::take(&mut *sink.lock().expect("stats sink poisoned"));
    Ok((r, stats))
}

/// The run's wall and CPU seconds, each the sum over slices of the
/// slice's least time across `reps`. Slice `k` does the same work in every
/// repetition, and interference from other work on a shared host only
/// ever adds time (see `stats::least`), so this is the time the run takes
/// with the host's disturbance taken out at the grain of one slice, a few
/// milliseconds, where the best whole repetition still carries every
/// disturbance it met.
fn best_slices(reps: &[&Rep]) -> (f64, f64) {
    let n = reps.iter().map(|r| r.slices.len()).min().unwrap_or(0);
    (0..n)
        .map(|k| {
            reps.iter()
                .map(|r| r.slices[k])
                .fold((f64::INFINITY, f64::INFINITY), |(w, c), (rw, rc)| {
                    (w.min(rw), c.min(rc))
                })
        })
        .fold((0.0, 0.0), |(w, c), (bw, bc)| (w + bw, c + bc))
}

/// Whether two runs of the same input are observationally identical in
/// what the benchmark reports: steps, send counts, delivery sequences.
fn same_run(a: &RunMetrics, b: &RunMetrics) -> bool {
    a.steps == b.steps
        && a.inter_sends == b.inter_sends
        && a.intra_sends == b.intra_sends
        && a.delivered_seq == b.delivered_seq
}

/// Quantile `q` of histogram `name` (`deliver_ns` or `commit_ns`) of a
/// `scale::latency_registry`, in ms, interpolated linearly inside the
/// bucket that holds it. `Histogram::value_at_quantile` reports the
/// bucket's upper bound, which on the WAN workloads is the same for every
/// seed; interpolating keeps the seed's effect visible, with the same
/// 3.1% bucket error.
pub fn latency_ms(reg: &MetricsRegistry, name: &str, q: f64) -> f64 {
    let Some(h) = reg.histogram_by_name(name).filter(|h| h.count() > 0) else {
        return 0.0;
    };
    let rank = (q * h.count() as f64).ceil().clamp(1.0, h.count() as f64);
    let mut below = 0.0;
    for (idx, n) in h.nonzero_buckets() {
        let n = n as f64;
        if below + n >= rank {
            let lo = if idx == 0 {
                0
            } else {
                bucket_high(idx - 1) + 1
            };
            let width = (bucket_high(idx) - lo) as f64;
            let v = lo as f64 + width * (rank - below) / n;
            return v.clamp(h.min() as f64, h.max() as f64) / 1e6;
        }
        below += n;
    }
    h.max() as f64 / 1e6
}

/// Checks one run's §2.2 properties (and genuineness for A1).
fn check(w: SimWorkload, topo: &Topology, m: &RunMetrics) -> Vec<String> {
    let all: Vec<ProcessId> = topo.processes().collect();
    let mut r = invariants::check_all(topo, m, &all);
    if w == SimWorkload::A1 {
        r = r.merge(invariants::check_genuineness(topo, m));
    }
    r.violations
}

/// Runs a simulator workload for about `seconds` of measured run time.
pub fn run(w: SimWorkload, seed: u64, seconds: u64, traced: bool) -> Outcome {
    let budget = Duration::from_secs(seconds).as_secs_f64();
    // Set-up is timed on its own, back to back: a set-up inside the
    // repetition loop also pays for the allocator's reuse of the previous
    // repetition's freed results, which on a2-32g made it ten times slower
    // from the third repetition on, so that its median would hang on how
    // many repetitions fit in the run.
    let setups: Vec<f64> = (0..SETUPS).map(|_| setup_s(w, seed)).collect();
    let mut out = Outcome::default();
    let mut reps: Vec<Rep> = Vec::new();
    let mut traced_reps: Vec<Rep> = Vec::new();
    let mut stats = Stats::default();
    let mut allocs = (0u64, 0u64);
    let mut spent = 0.0;
    let mut i = 0usize;
    // At least three repetitions of each kind run, so every median has
    // company and every repetition has one to be compared with.
    while spent < budget || reps.len() < 3 || (traced && traced_reps.len() < 3) {
        let shimmed = traced && i % 2 == 1;
        let counted = traced && i == 0;
        let res = if shimmed {
            traced_rep(w, seed).map(|(r, s)| {
                let mut s = s;
                stats.merge(&mut s);
                r
            })
        } else {
            bare_rep(w, seed, counted).map(|(r, a, b)| {
                if counted {
                    allocs = (a, b);
                }
                r
            })
        };
        out.attempted += 1;
        let r = match res {
            Ok(r) => r,
            Err(e) => {
                out.fail(e);
                break;
            }
        };
        spent += r.run_s;
        if let Some(first) = reps.first() {
            if !same_run(&first.metrics, &r.metrics) || first.slices.len() != r.slices.len() {
                let what = if shimmed { "shimmed" } else { "bare" };
                out.fail(format!("repetition {i} ({what}) differs from repetition 0"));
            }
        } else {
            for v in check(w, &input(w, seed).topo, &r.metrics) {
                out.fail(v);
            }
        }
        // Later repetitions are compared with the first, then only their
        // timings are kept.
        let keep = if reps.is_empty() {
            r
        } else {
            Rep {
                metrics: RunMetrics::default(),
                ..r
            }
        };
        if shimmed {
            traced_reps.push(keep);
        } else {
            reps.push(keep);
        }
        i += 1;
    }
    if reps.is_empty() {
        return out;
    }
    let first = &reps[0];
    let topo = input(w, seed).topo;
    let m = &first.metrics;
    let casts = first.casts as f64;
    let lat = latency_registry(&topo, m);

    let e = &mut out.e2e;
    // The first bare repetition of a traced run counts allocations, so its
    // timing is left out.
    let timed: Vec<&Rep> = if traced {
        reps.iter().skip(1).collect()
    } else {
        reps.iter().collect()
    };
    let per = |f: &dyn Fn(&Rep) -> f64| median(&timed.iter().map(|r| f(r)).collect::<Vec<_>>());
    e.set("setup_s", median(&setups));
    let (run_s, cpu_s) = best_slices(&timed);
    e.set("events_per_s", ratio(m.steps as f64, run_s));
    e.set("ops_per_s", ratio(casts, run_s));
    e.set("cpu_us_per_op", cpu_s * 1e6 / casts);
    e.set("deliver_p50_ms", latency_ms(&lat, "deliver_ns", 0.5));
    e.set("commit_p50_ms", latency_ms(&lat, "commit_ns", 0.5));
    e.set("inter_msgs_per_cast", ratio(m.inter_sends as f64, casts));
    out.layer.set("peak_rss_mb", per(&|r| r.peak_mb));

    if traced {
        let l = &mut out.layer;
        l.set("deliver_p99_ms", latency_ms(&lat, "deliver_ns", 0.99));
        l.set("commit_p99_ms", latency_ms(&lat, "commit_ns", 0.99));
        let steps = m.steps as f64;
        l.set("sim.steps", steps);
        l.set(
            "sim.setup_ns_per_cast",
            median(&reps.iter().map(|r| r.setup_cast_ns).collect::<Vec<_>>()),
        );
        l.set("sim.allocs_per_step", ratio(allocs.0 as f64, steps));
        l.set("sim.alloc_bytes_per_step", ratio(allocs.1 as f64, steps));
        let traced_wall: f64 = traced_reps.iter().map(|r| r.run_s).sum();
        let events = steps * traced_reps.len() as f64;
        l.set(
            "sim.self_ns_per_event",
            ratio(traced_wall * 1e9 - stats.shim_ns as f64, events),
        );
        let bare_wall = median(&timed.iter().map(|r| r.run_s).collect::<Vec<_>>());
        let shim_wall = median(&traced_reps.iter().map(|r| r.run_s).collect::<Vec<_>>());
        l.set("shim.overhead_frac", ratio(shim_wall, bare_wall) - 1.0);
        layer_metrics(l, &stats, stats.calls_of(Kind::Cast) as f64);
        if stats.events != events as u64 {
            out.fail(format!(
                "shim saw {} handler calls, the simulator {} steps",
                stats.events, events
            ));
        }
        if w == SimWorkload::A1 {
            for c in [
                MsgClass::Rmcast,
                MsgClass::Ts,
                MsgClass::Accept,
                MsgClass::Decide,
            ] {
                if stats.calls_of(Kind::Msg(c)) == 0 {
                    out.fail(format!("no inbound {c:?} message was classified"));
                }
            }
        }
        out.spans = std::mem::take(&mut stats.spans);
    }
    out.attempted = out.attempted.max(1);
    out
}

/// The per-layer metrics every shimmed workload derives from its shim
/// counters; `casts` is the per-op denominator.
pub fn layer_metrics(l: &mut Metrics, s: &Stats, casts: f64) {
    l.set("core.cast_ns", s.mean_ns(Kind::Cast));
    l.set("core.ts_ns", s.mean_ns(Kind::Msg(MsgClass::Ts)));
    l.set("core.timer_ns", s.mean_ns(Kind::Timer));
    l.set(
        "core.ts_msgs_per_cast",
        ratio(s.copies(MsgClass::Ts) as f64, casts),
    );
    l.set(
        "consensus.propose_ns",
        s.mean_ns(Kind::Msg(MsgClass::Propose)),
    );
    l.set(
        "consensus.accept_ns",
        s.mean_ns(Kind::Msg(MsgClass::Accept)),
    );
    l.set(
        "consensus.decide_ns",
        s.mean_ns(Kind::Msg(MsgClass::Decide)),
    );
    let cons =
        s.copies(MsgClass::Propose) + s.copies(MsgClass::Accept) + s.copies(MsgClass::Decide);
    l.set("consensus.msgs_per_cast", ratio(cons as f64, casts));
    l.set(
        "consensus.casts_per_decide",
        ratio(s.decide_casts as f64, s.decide_sends as f64),
    );
    l.set("rmcast.handler_ns", s.mean_ns(Kind::Msg(MsgClass::Rmcast)));
    l.set(
        "rmcast.msgs_per_cast",
        ratio(s.copies(MsgClass::Rmcast) as f64, casts),
    );
    let retx = s.timer_copies[crate::shim::class_index(MsgClass::Rmcast)];
    l.set("rmcast.retx_per_op", ratio(retx as f64, casts));
    l.set("wire.bytes_per_cast", ratio(s.wire_bytes as f64, casts));
    l.set(
        "wire.seal_ns_per_msg",
        ratio(s.seal_ns as f64, s.wire_msgs as f64),
    );
    l.set(
        "wire.open_ns_per_msg",
        ratio(s.open_ns as f64, s.wire_msgs as f64),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The interpolated quantile stays within the registry's bucket error
    /// of the exact one and inside the observed range, and it moves when
    /// the median moves within one bucket, where the registry's own
    /// quantile does not.
    #[test]
    fn latency_quantile_is_interpolated() {
        let sample = |n: u64| {
            let mut reg = MetricsRegistry::new();
            let h = reg.histogram("deliver_ns");
            for ms in 1..=n {
                reg.record(h, ms * 1_000_000);
            }
            reg
        };
        let (a, b) = (sample(900), sample(904));
        let p50 = latency_ms(&a, "deliver_ns", 0.5);
        assert!((p50 - 450.0).abs() <= 450.0 / 32.0, "{p50}");
        assert_eq!(latency_ms(&a, "deliver_ns", 1.0), 900.0);
        let p0 = latency_ms(&a, "deliver_ns", 0.0);
        assert!((1.0..=1.0 + 1.0 / 32.0).contains(&p0), "{p0}");
        let bucketed = |r: &MetricsRegistry| r.histogram_by_name("deliver_ns").unwrap().p50();
        assert_eq!(bucketed(&a), bucketed(&b));
        assert!(latency_ms(&b, "deliver_ns", 0.5) > p50);
        assert_eq!(latency_ms(&a, "commit_ns", 0.5), 0.0);
    }

    /// Running in slices of virtual time does what one unsliced run to
    /// quiescence does.
    #[test]
    fn slicing_is_neutral() {
        let w = SimWorkload::A1;
        let (sliced, _, _) = bare_rep(w, 7, false).expect("sliced run drains");
        assert!(sliced.slices.len() > 1);
        let (mut sim, _, _) = build(w, 7, a1_factory);
        sim.try_run_to_quiescence().expect("run drains");
        assert!(same_run(&sliced.metrics, &sim.into_metrics()));
    }

    /// The shim must not change what the simulator does: the same steps,
    /// send counts and per-process delivery sequences as the bare stack,
    /// on both simulator workloads; on A1 every class the shim times must
    /// actually be seen, which shows `describe_msg` is forwarded.
    #[test]
    fn shim_is_neutral() {
        for w in [SimWorkload::A1, SimWorkload::A2] {
            let (bare, _, _) = bare_rep(w, 7, false).expect("bare run drains");
            let (shimmed, stats) = traced_rep(w, 7).expect("shimmed run drains");
            assert!(same_run(&bare.metrics, &shimmed.metrics), "{w:?}");
            assert_eq!(stats.events, bare.metrics.steps, "{w:?}");
            assert_eq!(stats.inter_copies, bare.metrics.inter_sends, "{w:?}");
            if w == SimWorkload::A1 {
                for c in [
                    MsgClass::Rmcast,
                    MsgClass::Ts,
                    MsgClass::Accept,
                    MsgClass::Decide,
                ] {
                    assert!(stats.calls_of(Kind::Msg(c)) > 0, "{c:?}");
                }
            }
        }
    }
}
