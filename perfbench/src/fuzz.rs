//! The `fuzz` workload: the `scenario_fuzz` sweep on fault-injected
//! simulator runs, the only workload with drops, duplicates, crashes,
//! retransmission timers and the §2.2 and history checkers on the timed
//! path.
//!
//! One sweep is [`SWEEP`] consecutive seeds from the run's seed, each
//! derived with `RunSpec::derive` under the default fault distribution
//! (the timed set-up), then run on at most `nproc` workers: even indices
//! through `run_scenario` (delivery arm), odd ones through
//! `run_smr_scenario` (the KV service on top). The sweep repeats for
//! `--seconds`; repeats must agree, so every count is exact.

use crate::report::Outcome;
use crate::sim::latency_ms;
use crate::stats::{least, median, nproc, peak_rss_mb, process_cpu_ns, ratio, reset_peak_rss};
use std::time::{Duration, Instant};
use wamcast_harness::latency_registry;
use wamcast_harness::parallel::run_indexed;
use wamcast_harness::scenario::{run_scenario_full, shared_topology, RunSpec};
use wamcast_harness::smr::run_smr_scenario;
use wamcast_metrics::MetricsRegistry;
use wamcast_sim::FaultConfig;

/// Runs per sweep: a multiple of the 12 (topology, arm) combinations the
/// derivation cycles through, so every sweep has the same mix.
const SWEEP: u64 = 480;

/// What one fuzz run reports.
#[derive(Clone, Debug, PartialEq, Eq)]
struct RunResult {
    violations: Vec<String>,
    steps: u64,
    casts: u64,
    inter: u64,
    dropped: u64,
    duplicated: u64,
    crashes: u64,
    /// Fingerprint of the latency registry (0 for SMR runs), so repeated
    /// sweeps are compared on latencies too.
    latency_fp: u64,
}

/// One run's result and, for delivery-arm runs, its
/// `scale::latency_registry`.
fn one(spec: &RunSpec, smr: bool) -> (RunResult, Option<MetricsRegistry>) {
    if smr {
        let o = run_smr_scenario(spec, None);
        let r = RunResult {
            violations: o.violations,
            steps: o.steps,
            casts: o.history.ops.len() as u64,
            inter: o.inter_sends,
            dropped: o.dropped,
            duplicated: o.duplicated,
            crashes: o.crashes as u64,
            latency_fp: 0,
        };
        (r, None)
    } else {
        let (o, m) = run_scenario_full(spec, None);
        let topo = shared_topology(spec.topo.0, spec.topo.1);
        let lat = latency_registry(&topo, &m);
        let r = RunResult {
            violations: o.violations,
            steps: m.steps,
            casts: o.casts as u64,
            inter: m.inter_sends,
            dropped: o.dropped,
            duplicated: o.duplicated,
            crashes: o.crashes as u64,
            latency_fp: lat.fingerprint(),
        };
        (r, Some(lat))
    }
}

/// Runs the fuzz workload for about `seconds` of measured sweep time.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let budget = Duration::from_secs(seconds).as_secs_f64();
    let faults = FaultConfig::default();
    let base = seed.wrapping_mul(SWEEP * 1000);
    let threads = nproc();
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut peaks = Vec::new();
    let mut first: Option<Vec<RunResult>> = None;
    let mut lat = MetricsRegistry::new();
    let mut spent = 0.0;
    while spent < budget || walls.len() < 3 {
        reset_peak_rss();
        let t0 = Instant::now();
        let specs: Vec<RunSpec> = (0..SWEEP)
            .map(|i| RunSpec::derive(base.wrapping_add(i), &faults))
            .collect();
        setups.push(t0.elapsed().as_secs_f64());
        let cpu0 = process_cpu_ns();
        let t1 = Instant::now();
        let (results, lats): (Vec<RunResult>, Vec<Option<MetricsRegistry>>) =
            run_indexed(SWEEP, threads, |i| one(&specs[i as usize], i % 2 == 1))
                .into_iter()
                .unzip();
        let wall = t1.elapsed().as_secs_f64();
        cpus.push((process_cpu_ns() - cpu0) as f64 / 1e9);
        walls.push(wall);
        peaks.push(peak_rss_mb());
        spent += wall;
        out.attempted += SWEEP;
        match &first {
            None => {
                for (i, r) in results.iter().enumerate() {
                    if !r.violations.is_empty() {
                        out.fail(format!(
                            "seed {}: {}",
                            specs[i].seed,
                            r.violations.join("; ")
                        ));
                    }
                }
                for l in lats.iter().flatten() {
                    lat.merge(l);
                }
                first = Some(results);
            }
            Some(f) if *f != results => {
                out.fail("a repeated sweep differs from the first".to_string());
                break;
            }
            Some(_) => {}
        }
    }
    let Some(results) = first else { return out };
    let sum = |f: &dyn Fn(&RunResult) -> u64| results.iter().map(f).sum::<u64>() as f64;
    let steps = sum(&|r| r.steps);
    let casts = sum(&|r| r.casts);
    // Rates and CPU come from the least-disturbed sweep (see
    // `stats::least`); every sweep runs the same specs.
    let per_wall = |x: f64| ratio(x, least(&walls));

    let e = &mut out.e2e;
    e.set("setup_s", median(&setups));
    e.set("events_per_s", per_wall(steps));
    e.set("ops_per_s", per_wall(casts));
    e.set("cpu_us_per_op", least(&cpus) * 1e6 / casts);
    e.set("deliver_p50_ms", latency_ms(&lat, "deliver_ns", 0.5));
    e.set("commit_p50_ms", latency_ms(&lat, "commit_ns", 0.5));
    e.set("inter_msgs_per_cast", ratio(sum(&|r| r.inter), casts));
    out.layer.set("peak_rss_mb", median(&peaks));

    if traced {
        let l = &mut out.layer;
        l.set("deliver_p99_ms", latency_ms(&lat, "deliver_ns", 0.99));
        l.set("commit_p99_ms", latency_ms(&lat, "commit_ns", 0.99));
        let runs = SWEEP as f64;
        l.set("sim.steps", steps);
        l.set("fault.runs_per_s", per_wall(runs));
        l.set("fault.drops_per_run", sum(&|r| r.dropped) / runs);
        l.set("fault.dups_per_run", sum(&|r| r.duplicated) / runs);
        l.set("fault.crashes_per_run", sum(&|r| r.crashes) / runs);
        l.set("fault.derive_us_per_run", median(&setups) * 1e6 / runs);
        // `shim.overhead_frac` stays unset (n/a): the fuzz stacks are
        // built inside the harness, where no shim can reach.
    }
    out
}
