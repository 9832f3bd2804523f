//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <plan-8k|reconfig-sim-4k|publish-tcp> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a context line (seed, parallelism, failures by name, checks,
//! the workload's own figures, and with `--trace 1` the per-span
//! breakdown), then the result as the last line. Exits 1 when a
//! correctness check fails, 2 on a usage error.

use greenps_perfbench::metrics::Workload;
use greenps_perfbench::{plan, publish, reconfig, sys, RunOpts};
use std::process::ExitCode;

fn parse() -> Result<(Workload, RunOpts), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut opts = RunOpts {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

fn main() -> ExitCode {
    let (workload, opts) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <plan-8k|reconfig-sim-4k|publish-tcp> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut report = match workload {
        Workload::Plan => plan::run(&plan::PlanSize::FULL, &opts),
        Workload::Reconfig => reconfig::run(&reconfig::ReconfigSize::FULL, &opts),
        Workload::Publish => publish::run(&publish::PublishSize::FULL, &opts),
    };
    report.note("workload", workload.name());
    report.note("seed", opts.seed);
    report.note("seconds", opts.seconds);
    report.note("trace", u8::from(opts.trace));
    report.note("available_parallelism", sys::available_parallelism());
    println!("{}", report.detail_json());
    match report.result_json(workload, opts.trace) {
        Ok(line) if report.correct() => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Ok(line) => {
            println!("{line}");
            eprintln!("perfbench: a correctness check failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
