//! The repository's benchmark: four workloads, end-to-end metrics, and a
//! traced run that splits them by layer, measured from outside the
//! program (see `README.md` beside this crate for the workloads, the
//! metric catalogue and which layer metric should move which end-to-end
//! one).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <a1-3x3|a2-32g|kv-tcp|fuzz|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one line per metric (name, value, unit), then, as the last line
//! of standard output, the JSON result
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. With
//! `--workload all` that line covers every workload: `correct` only if
//! all passed, `attempted` and `failed` summed, and each metric named
//! `<workload>/<metric>`. Exits 1 when a correctness check fails, 2 on a
//! usage error.

mod alloc;
mod fuzz;
mod kv;
mod report;
mod shim;
mod sim;
mod stats;

use report::Outcome;
use std::io::Write as _;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["a1-3x3", "a2-32g", "kv-tcp", "fuzz"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut a = Args {
        workload: "all".to_string(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = num()?,
            "--seconds" => a.seconds = num()?.max(1),
            "--trace" => a.trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "unknown workload {} ({})",
            a.workload,
            WORKLOADS.join("|")
        ));
    }
    Ok(a)
}

fn run_one(workload: &str, a: &Args) -> Outcome {
    shim::reset_span_budget();
    let mut out = match workload {
        "a1-3x3" => sim::run(sim::SimWorkload::A1, a.seed, a.seconds, a.trace),
        "a2-32g" => sim::run(sim::SimWorkload::A2, a.seed, a.seconds, a.trace),
        "kv-tcp" => kv::run(a.seed, a.seconds, a.trace),
        "fuzz" => fuzz::run(a.seed, a.seconds, a.trace),
        _ => unreachable!("validated by parse"),
    };
    let frac = stats::ratio(out.failed as f64, out.attempted.max(1) as f64);
    out.layer.set("failed_frac", frac);
    out
}

/// Writes the traced run's spans beside the build output, one per line:
/// node, layer, start ns, end ns, cast id, casts carried.
fn write_spans(workload: &str, seed: u64, out: &Outcome) -> std::io::Result<String> {
    let dir = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".to_string()),
    )
    .join("spans");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}-seed{seed}.tsv"));
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(w, "node\tlayer\tstart_ns\tend_ns\tcast\tcasts")?;
    for s in &out.spans {
        let cast = s.cast.map_or_else(|| "-".to_string(), |c| c.to_string());
        let layer = s.kind.layer();
        writeln!(
            w,
            "{}\t{layer}\t{}\t{}\t{cast}\t{}",
            s.node, s.start_ns, s.end_ns, s.casts
        )?;
    }
    w.flush()?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let a = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "host: nproc={} cpu=\"{}\" rustc=\"{}\"",
        stats::nproc(),
        stats::cpu_model(),
        env!("PERFBENCH_RUSTC")
    );
    let list: Vec<&str> = if a.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![a.workload.as_str()]
    };
    let prefixed = list.len() > 1;
    let (mut ok, mut attempted, mut failed) = (true, 0, 0);
    let mut members = Vec::new();
    for w in list {
        let out = run_one(w, &a);
        for p in out.problems.iter().take(20) {
            eprintln!("perfbench: {w}: check failed: {p}");
        }
        if a.trace && !out.spans.is_empty() {
            match write_spans(w, a.seed, &out) {
                Ok(path) => println!("{w:>8}  spans: {} written to {path}", out.spans.len()),
                Err(e) => eprintln!("perfbench: {w}: writing spans: {e}"),
            }
        }
        let prefix = if prefixed {
            format!("{w}/")
        } else {
            String::new()
        };
        let (text, json) = out.render(w, a.trace, &prefix);
        print!("{text}");
        ok &= out.correct();
        attempted += out.attempted.max(1);
        failed += out.failed;
        members.push(json);
    }
    println!(
        "{}",
        report::result_line(ok, attempted, failed, &members.join(", "))
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
