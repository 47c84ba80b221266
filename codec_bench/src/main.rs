//! The TEPICS codec benchmark: one command that runs a workload through
//! the public `tepics-core` API, checks its outputs, and prints every
//! metric by name with its unit. The last stdout line is the result:
//!
//! ```text
//! {"correct": true, "attempted": 28, "failed": 0, "metrics": {"setup_s": {"value": …, "unit": "s"}, …}}
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! tracing off; with `--trace 1` they are the per-layer ones, from a
//! separate traced run that also writes its spans to
//! `codec_bench/out/`. See `codec_bench/README.md`.

// Timing code: the wall clock is the point here.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

mod camera;
mod common;
mod fleet;
mod host;
mod layers;
mod live;
mod metrics;
mod recorded;
mod stats;
mod trace;

use std::path::Path;
use std::process::ExitCode;

use common::{Config, Outcome};
use host::Facts;
use metrics::{END_TO_END, PER_LAYER};
use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["camera_capture", "live_stream", "fleet_ingest"];

const USAGE: &str = "usage: codec-bench --workload <camera_capture|live_stream|fleet_ingest> \
                     --seed <n> --seconds <s> --trace <0|1> [--smoke] [--record]";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    record: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        record: false,
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--smoke" => args.smoke = true,
            "--record" => args.record = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(args)
}

/// Runs one workload.
fn run_workload(workload: &str, cfg: &Config, tr: &mut Tracer) -> Outcome {
    match workload {
        "camera_capture" => camera::run(cfg, tr),
        "live_stream" => live::run(cfg, tr),
        "fleet_ingest" => fleet::run(cfg, tr),
        other => unreachable!("workload {other} was validated"),
    }
}

/// One row of `recorded.rs` for the configured seed.
fn record_row(workload: &str, cfg: &Config) -> String {
    match workload {
        "camera_capture" => {
            let frames: Vec<String> = camera::record(cfg)
                .iter()
                .map(|(d, c)| format!("(0x{d:016x}, {c:?})"))
                .collect();
            format!("({}, [{}]),", cfg.seed, frames.join(", "))
        }
        "live_stream" => {
            let psnrs: Vec<String> = live::record(cfg).iter().map(|p| format!("{p:?}")).collect();
            format!("({}, [{}]),", cfg.seed, psnrs.join(", "))
        }
        _ => format!("({}, {:?}),", cfg.seed, fleet::record(cfg)),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("codec-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let facts = Facts::gather();
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        threads: facts.nproc,
    };
    if args.record {
        println!("{}", record_row(&args.workload, &cfg));
        return ExitCode::SUCCESS;
    }

    let mut tr = Tracer::new(cfg.trace);
    let out = run_workload(&args.workload, &cfg, &mut tr);
    let facts_json = facts.to_json(&args.workload, cfg.seed, cfg.threads);
    if cfg.seed == recorded::HELD_OUT_SEED {
        println!("# seed {} is the held-out seed", cfg.seed);
    }
    for note in &out.notes {
        println!("# {note}");
    }
    for failure in &out.failures {
        println!("# CHECK FAILED: {failure}");
    }
    let (table, other) = if cfg.trace {
        (PER_LAYER, END_TO_END)
    } else {
        (END_TO_END, PER_LAYER)
    };
    for (name, unit) in other {
        if let Some(v) = out.metrics.get(name) {
            println!("# {name} = {v} {unit}");
        }
    }
    println!("{{\"facts\": {facts_json}}}");
    if cfg.trace {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}-seed{}.json", args.workload, cfg.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, tr.to_json(&facts_json)));
        match written {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => println!("# could not write spans to {}: {e}", path.display()),
        }
    }
    let metrics_json = match out.metrics.to_json(table) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("codec-bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = out.failures.is_empty() && out.attempted > 0;
    println!(
        "{}",
        metrics::result_line(correct, out.attempted.max(1), out.failed, &metrics_json)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_benchmark_command_line_parses() {
        let a = args("--workload live_stream --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("live_stream", 7, 20.0, true)
        );
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload live_stream --trace 2").is_err());
        assert!(args("--workload live_stream --seed").is_err());
        assert!(args("--workload live_stream --bogus").is_err());
    }

    /// The tiny-size smoke mode: every workload, untraced and traced,
    /// passes its output checks and reports every declared metric.
    #[test]
    fn smoke_runs_pass_their_checks_and_report_every_metric() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let cfg = Config {
                    seed: 3,
                    seconds: 0.0,
                    trace,
                    smoke: true,
                    threads: 2,
                };
                let mut tr = Tracer::new(trace);
                let out = run_workload(workload, &cfg, &mut tr);
                assert!(out.failures.is_empty(), "{workload}: {:?}", out.failures);
                assert!(out.attempted > 0 && out.failed == 0, "{workload}");
                let table = if trace { PER_LAYER } else { END_TO_END };
                if let Err(e) = out.metrics.to_json(table) {
                    panic!("{workload} (trace {trace}): {e}");
                }
                if trace {
                    let coverage = out.metrics.get("trace.coverage").unwrap();
                    assert!(coverage > 0.5 && coverage <= 1.0, "{workload}: {coverage}");
                }
            }
        }
    }
}
