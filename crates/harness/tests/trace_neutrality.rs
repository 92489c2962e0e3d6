//! Trace neutrality: flight-recording must never perturb a schedule.
//!
//! The causal trace layer's contract is that recording is
//! **observation-only**: the simulator pushes events from its existing
//! dispatch sites, draws no randomness, schedules nothing. This suite
//! pins the contract from three directions:
//!
//! * the engine-determinism golden corpora (the PR 4 pre-overhaul
//!   fingerprints and the PR 5 baseline-arm fingerprints) are regenerated
//!   with the recorder ON and must match the checked-in goldens **byte
//!   for byte** — the traced engine is the golden engine;
//! * a 200-seed faulted fuzz sweep is run traced and untraced and every
//!   seed's full `RunMetrics` fingerprint must agree;
//! * the canonical `3x3 a1-batched` probe (a heavy, fault-free batched
//!   load) dispatches the same step count traced and untraced.
//!
//! If any test fails, a recording site did more than observe (took a
//! branch that draws RNG, reordered an event, mutated protocol state) —
//! fix the site, never bless new goldens from here.

mod common;

use common::{fingerprint, run_probe};
use wamcast_harness::run_scenario_full;
use wamcast_harness::scenario::{capture_trace, RunSpec};
use wamcast_harness::StackRegistry;
use wamcast_sim::FaultConfig;

/// Goldens blessed by the pre-overhaul engine (PR 4) — the strongest
/// anchor available: traced runs must reproduce schedules fixed before
/// the trace layer existed.
const GOLDEN: &str = include_str!("golden_engine_fingerprints.txt");
/// Goldens for the extended (`--arms all`) rotation (PR 5).
const GOLDEN_BASELINES: &str = include_str!("golden_baseline_fingerprints.txt");

/// Recorder capacity for every traced run here: big enough that the ring
/// never wraps (wrap handling is covered by the trace crate's property
/// test; neutrality must hold regardless, but a non-wrapping ring lets
/// the non-empty sanity check below count real volume).
const CAP: usize = 1 << 17;

/// Mirrors `engine_determinism.rs::corpus_lines` exactly — same seeds,
/// same derivation, same line format — but with the recorder on.
fn corpus_lines_traced() -> String {
    let faulted = FaultConfig::default();
    let quiet = FaultConfig::quiet();
    let mut out = String::new();
    let (_, ring) = capture_trace(CAP, || {
        for seed in 0..24u64 {
            let spec = RunSpec::derive(seed, &faulted);
            let (_, m) = run_scenario_full(&spec, None);
            out.push_str(&format!("faulted {seed} {:#018x}\n", fingerprint(&m)));
        }
        for seed in 0..6u64 {
            let spec = RunSpec::derive(seed, &quiet);
            let (_, m) = run_scenario_full(&spec, None);
            out.push_str(&format!("quiet {seed} {:#018x}\n", fingerprint(&m)));
        }
    });
    assert!(!ring.is_empty(), "the traced corpus must actually record");
    out
}

/// Mirrors `engine_determinism.rs::extended_corpus_lines`, recorder on.
fn extended_corpus_lines_traced() -> String {
    let all = StackRegistry::standard().all();
    let faulted = FaultConfig::default();
    let quiet = FaultConfig::quiet();
    let mut out = String::new();
    let (_, ring) = capture_trace(CAP, || {
        for seed in 0..36u64 {
            let spec = RunSpec::derive_with(seed, &faulted, &all);
            let (_, m) = run_scenario_full(&spec, None);
            out.push_str(&format!(
                "faulted {seed} {} {:#018x}\n",
                spec.arm.name(),
                fingerprint(&m)
            ));
        }
        for seed in 0..9u64 {
            let spec = RunSpec::derive_with(seed, &quiet, &all);
            let (_, m) = run_scenario_full(&spec, None);
            out.push_str(&format!(
                "quiet {seed} {} {:#018x}\n",
                spec.arm.name(),
                fingerprint(&m)
            ));
        }
    });
    assert!(!ring.is_empty(), "the traced corpus must actually record");
    out
}

#[test]
fn traced_runs_reproduce_the_pre_overhaul_golden_corpus() {
    assert!(
        !GOLDEN.trim().is_empty(),
        "golden corpus missing — bless it via engine_determinism first"
    );
    let traced = corpus_lines_traced();
    for (g, t) in GOLDEN.lines().zip(traced.lines()) {
        assert_eq!(
            g, t,
            "recording perturbed this seed's schedule (the traced engine \
             must be byte-identical to the golden engine)"
        );
    }
    assert_eq!(GOLDEN, traced, "corpus length changed under tracing");
}

#[test]
fn traced_runs_reproduce_the_baseline_golden_corpus() {
    assert!(
        !GOLDEN_BASELINES.trim().is_empty(),
        "baseline golden corpus missing — bless it via engine_determinism first"
    );
    let traced = extended_corpus_lines_traced();
    for (g, t) in GOLDEN_BASELINES.lines().zip(traced.lines()) {
        assert_eq!(g, t, "recording perturbed a baseline arm's schedule");
    }
    assert_eq!(
        GOLDEN_BASELINES, traced,
        "corpus length changed under tracing"
    );
}

#[test]
fn two_hundred_seed_sweep_is_fingerprint_identical_traced_vs_untraced() {
    let faults = FaultConfig::default();
    for seed in 0..200u64 {
        let spec = RunSpec::derive(seed, &faults);
        let (out_plain, m_plain) = run_scenario_full(&spec, None);
        let ((out_traced, m_traced), ring) = capture_trace(CAP, || run_scenario_full(&spec, None));
        assert_eq!(
            fingerprint(&m_plain),
            fingerprint(&m_traced),
            "seed {seed} ({} on {:?}): tracing changed the schedule",
            spec.arm.name(),
            spec.topo
        );
        assert_eq!(
            out_plain.violations, out_traced.violations,
            "seed {seed}: tracing changed the verdict"
        );
        assert!(!ring.is_empty(), "seed {seed}: nothing recorded");
    }
}

#[test]
fn traced_canonical_probe_executes_the_untraced_schedule() {
    let (untraced, _) = run_probe(0);
    let (traced, recorded) = run_probe(1 << 16);
    assert_eq!(untraced, traced, "recording must not perturb the schedule");
    assert!(recorded > 0, "a traced probe must actually record");
}
