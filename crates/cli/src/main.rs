//! `turl` — command-line interface for the TURL reproduction.
//!
//! ```text
//! turl world    [--entities N] [--seed S]            inspect a synthetic world
//! turl corpus   [--tables N] [--seed S] [--out F]    generate + partition a corpus
//! turl pretrain [--tables N] [--epochs E] [--out F]  pre-train, write the model artifact
//!               [--checkpoint-dir D] [--checkpoint-every N] [--resume]
//!                                                    crash-safe periodic
//!                                                    checkpoints, exact resume
//!               [--metrics-out run.jsonl]            structured JSONL telemetry
//! turl probe    [--artifact F] [...]                 object-entity prediction probe
//! turl fill     [--artifact F] [...]                 zero-shot cell filling demo
//! turl infer    [--artifact F] [--reps N]            compiled graph-free inference
//!               [--reference F [--tolerance T]]      ... int8 probe gate vs the f32 artifact
//! turl export   [--artifact F] [--out F] [--dtype D] rewrite the artifact, f32 or int8
//! turl audit    [--entities N] [--tables N] [--seed S]  static invariant checks
//! turl plan     [--eps F] [...]                      IR + value ranges + arena plan
//! turl bench    [--quick] [--threads 1,2,4] [--out F]   throughput benchmark
//! turl serve    [--artifact F] [--addr A] [...]       batched HTTP inference daemon
//! turl client   [--addr A] [--check-parity] [...]     drive + parity-check a daemon
//! turl top      [--addr A] [--interval-ms MS]         live /metrics dashboard
//! turl report   <run.jsonl>                          render a metrics file
//! ```
//!
//! All commands are deterministic in `--seed` regardless of the worker
//! pool width, which is set by `--threads N` (or `TURL_THREADS`).

#![deny(missing_docs)]

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{}", commands::USAGE);
        return ExitCode::FAILURE;
    };
    // `report` takes a positional file path, unlike every other command.
    if cmd == "report" {
        return match commands::report(rest) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match args::Options::parse(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", commands::USAGE);
            return ExitCode::FAILURE;
        }
    };
    // Human-facing output routes through the console sink; structured
    // collection stays off unless a JSONL sink is also installed.
    turl_obs::install_sink(Box::new(turl_obs::ConsoleSink));
    match opts.get("metrics-out", "").as_str() {
        "" => {}
        path => match turl_obs::JsonlSink::create(std::path::Path::new(path)) {
            Ok(sink) => {
                turl_obs::install_sink(Box::new(sink));
            }
            Err(e) => {
                eprintln!("error: cannot create --metrics-out {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
    }
    // Global worker-pool width. `bench` interprets `--threads` itself
    // (as a comma-separated sweep), every other command as one integer.
    if cmd != "bench" {
        match opts.get("threads", "").as_str() {
            "" => {}
            v => match v.parse::<usize>() {
                Ok(n) => turl_tensor::pool::set_threads(n),
                Err(_) => {
                    eprintln!("error: --threads expects an integer, got `{v}`");
                    return ExitCode::FAILURE;
                }
            },
        }
    }
    let result = match cmd.as_str() {
        "world" => commands::world(&opts),
        "corpus" => commands::corpus(&opts),
        "pretrain" => commands::pretrain(&opts),
        "probe" => commands::probe(&opts),
        "fill" => commands::fill(&opts),
        "infer" => commands::infer(&opts),
        "export" => commands::export(&opts),
        "audit" => commands::audit(&opts),
        "plan" => commands::plan(&opts),
        "bench" => commands::bench(&opts),
        "serve" => commands::serve(&opts),
        "client" => commands::client(&opts),
        "top" => commands::top(&opts),
        "help" | "--help" | "-h" => {
            println!("{}", commands::USAGE);
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    turl_obs::flush();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
