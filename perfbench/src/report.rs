//! The metric catalogue and the result line.
//!
//! Every run prints each metric of its category, by name with its unit:
//! the end-to-end metrics untraced, the per-layer metrics traced. The
//! catalogue below is the one `BENCHMARK.json` lists (a test keeps the two
//! equal). A per-layer metric a workload does not exercise prints 0 and is
//! marked `n/a` in the human-readable lines.

use crate::shim::Span;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("events_per_s", "events/s"),
    ("ops_per_s", "ops/s"),
    ("cpu_us_per_op", "us"),
    ("deliver_p50_ms", "ms"),
    ("commit_p50_ms", "ms"),
    ("inter_msgs_per_cast", "msgs"),
];

/// Per-layer metrics: name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("failed_frac", "ratio"),
    ("deliver_p99_ms", "ms"),
    ("commit_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("sim.steps", "count"),
    ("sim.setup_ns_per_cast", "ns"),
    ("sim.self_ns_per_event", "ns"),
    ("sim.allocs_per_step", "count"),
    ("sim.alloc_bytes_per_step", "bytes"),
    ("core.cast_ns", "ns"),
    ("core.ts_ns", "ns"),
    ("core.timer_ns", "ns"),
    ("core.ts_msgs_per_cast", "msgs"),
    ("consensus.propose_ns", "ns"),
    ("consensus.accept_ns", "ns"),
    ("consensus.decide_ns", "ns"),
    ("consensus.msgs_per_cast", "msgs"),
    ("consensus.casts_per_decide", "casts"),
    ("rmcast.handler_ns", "ns"),
    ("rmcast.msgs_per_cast", "msgs"),
    ("rmcast.retx_per_op", "msgs"),
    ("smr.apply_ns", "ns"),
    ("smr.check_s", "s"),
    ("wire.bytes_per_cast", "bytes"),
    ("wire.seal_ns_per_msg", "ns"),
    ("wire.open_ns_per_msg", "ns"),
    ("net.ingress_us_p50", "us"),
    ("net.ingress_us_p99", "us"),
    ("net.hop_us_p50", "us"),
    ("net.hop_us_p99", "us"),
    ("net.msgs_per_op", "msgs"),
    ("net.loop_cpu_us_per_op", "us"),
    ("net.loop_self_us_per_op", "us"),
    ("net.io_cpu_us_per_op", "us"),
    ("net.loop_busy_frac_max", "ratio"),
    ("load.lag_p99_ms", "ms"),
    ("load.lag_max_ms", "ms"),
    ("fault.runs_per_s", "runs/s"),
    ("fault.drops_per_run", "count"),
    ("fault.dups_per_run", "count"),
    ("fault.crashes_per_run", "count"),
    ("fault.derive_us_per_run", "us"),
    ("shim.overhead_frac", "ratio"),
];

/// Measured values by metric name.
#[derive(Clone, Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `name` (which must be in the catalogue).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not in the catalogue"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// The value of `name`, if measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Units of work attempted (repetitions, runs or ops).
    pub attempted: u64,
    /// Units that failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Per-layer metrics (traced runs).
    pub layer: Metrics,
    /// Spans recorded by the shim (traced runs).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Records a failed check.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The human-readable metric lines, and the metrics as the members
    /// of the result line's `metrics` object, each name preceded by
    /// `prefix`.
    pub fn render(&self, workload: &str, traced: bool, prefix: &str) -> (String, String) {
        let (list, got) = if traced {
            (PER_LAYER, &self.layer)
        } else {
            (END_TO_END, &self.e2e)
        };
        let mut text = String::new();
        let mut json = String::new();
        for (i, (name, unit)) in list.iter().enumerate() {
            let measured = got.get(name);
            let v = measured.unwrap_or(0.0);
            let note = if measured.is_some() { "" } else { "  (n/a)" };
            let _ = writeln!(text, "{workload:>8}  {name:<28} {v:>16.6} {unit}{note}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{prefix}{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        (text, json)
    }
}

/// The JSON result line over `members` (see [`Outcome::render`]).
pub fn result_line(correct: bool, attempted: u64, failed: u64, members: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{members}}}}}",
        attempted.max(1)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue is the one `BENCHMARK.json` declares, name for name
    /// and unit for unit.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_has_every_metric() {
        let mut o = Outcome::default();
        o.e2e.set("setup_s", 0.25);
        let (text, members) = o.render("x", false, "");
        let line = result_line(o.correct(), o.attempted, o.failed, &members);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"inter_msgs_per_cast\""));
        assert!(text.contains("(n/a)"));
    }
}
