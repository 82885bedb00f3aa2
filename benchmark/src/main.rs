//! The benchmark of record for turl-rs: served TUBE requests over
//! loopback and paper-config pre-training steps, with per-crate layer
//! timings in a separate traced run. See `benchmark/README.md`.
//!
//! ```text
//! turl-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: every end-to-end
//! metric with `--trace 0`, every per-layer metric with `--trace 1`.

mod fixture;
mod layers;
mod load;
mod metrics;
mod pretrain;
mod serve;
mod spans;
mod stats;

use metrics::{Metrics, END_TO_END, PER_LAYER};
use spans::Recorder;
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads; `BENCHMARK.json` says why each exists.
const WORKLOADS: [&str; 4] = ["serve_cold", "serve_hot", "serve_int8", "pretrain"];

/// Timed set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 7;

/// What one workload run found.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed (non-200, transport error, parity mismatch,
    /// a training step that did not step).
    pub failed: u64,
    /// Workload guards that did not hold; any entry makes the run incorrect.
    pub violations: Vec<String>,
    /// End-to-end metric values.
    pub e2e: Metrics,
    /// Per-layer metric values.
    pub layer: Metrics,
}

impl Outcome {
    /// Record a guard; a guard that does not hold fails the run.
    pub fn require(&mut self, holds: bool, what: &str) {
        if !holds {
            println!("GUARD FAILED: {what}");
            self.violations.push(what.to_string());
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        out_dir: "benchmark/out".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--out" => args.out_dir = value.into(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}, got `{}`", args.workload));
    }
    if !(1.0..=600.0).contains(&args.seconds) {
        return Err(format!("--seconds {} is outside 1..=600", args.seconds));
    }
    Ok(args)
}

fn run(args: &Args) -> Result<(), String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace
    );
    let rec = Recorder::new(args.trace);
    // A traced run reports no set-up time, so it sets up once.
    let setups = if args.trace { 1 } else { SETUPS };
    let (mut out, world) = match args.workload.as_str() {
        "pretrain" => pretrain::run(args.seed, args.seconds, setups, &rec)?,
        name => {
            let kind = match name {
                "serve_cold" => serve::Kind::Cold,
                "serve_hot" => serve::Kind::Hot,
                _ => serve::Kind::Int8,
            };
            serve::run(kind, args.seed, args.seconds, setups, &args.out_dir, &rec)?
        }
    };
    out.e2e.insert("peak_rss_mb", peak_rss_mb()?);

    if args.trace {
        layers::run(&world, args.seed, &args.out_dir, &rec, &mut out.layer)?;
        let path = args.out_dir.join(format!("trace_{}.jsonl", args.workload));
        let n = rec.write_jsonl(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace: {n} spans written to {}; self time by span name:", path.display());
        for (name, count, ns) in spans::self_time_by_name(&rec.snapshot()) {
            println!("  {name:<34}{count:>7} spans{:>12.3} ms self", ns as f64 / 1e6);
        }
    }

    let correct = out.violations.is_empty();
    let (catalogue, values, title) = if args.trace {
        (PER_LAYER, &out.layer, "per-layer metrics (traced run)")
    } else {
        (END_TO_END, &out.e2e, "end-to-end metrics (untraced run)")
    };
    if let Some((missing, _)) =
        catalogue.iter().find(|(n, _)| !args.trace && !values.contains_key(n))
    {
        return Err(format!("end-to-end metric {missing} was not measured"));
    }
    println!("{title}:");
    for &(name, unit) in catalogue {
        println!("  {name:<36}{:>16.4} {unit}", values.get(name).copied().unwrap_or(0.0));
    }
    println!(
        "operations: attempted {} succeeded {} failed {}; correct {correct}",
        out.attempted,
        out.attempted.saturating_sub(out.failed),
        out.failed
    );
    println!("{}", metrics::result_line(correct, out.attempted, out.failed, catalogue, values));
    Ok(())
}

fn main() -> ExitCode {
    // A run whose guards failed still prints its result line and exits 0:
    // the caller reads `correct` from it. Only a run that could not
    // measure at all exits non-zero, without a result line.
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("turl-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
