//! Command line of the benchmark.
//!
//! ```text
//! sae-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               [--smoke] [--data-dir <root>] [--report <file>] [--trace-out <file>]
//! sae-benchmark agree <setA> <setB>
//! ```
//!
//! A run prints its result — exactly `correct`, `attempted`, `failed`,
//! `metrics` — as the last line of standard output and exits 0 only when the
//! run was correct. `--report` appends the full report (options, result,
//! phases) to a file as one JSON line; without it the report goes to
//! standard error.

use sae_benchmark::decl::Declaration;
use sae_benchmark::pin::pin_to_one_cpu;
use sae_benchmark::workload::Workload;
use sae_benchmark::{agree, report, run, Options, Res};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: sae-benchmark --workload <net_point|net_wide|local_scan|durable_mix> \
--seed <n> [--seconds <s>] [--trace <0|1>] [--smoke] [--data-dir <root>] [--report <file>] \
[--trace-out <file>]\n       sae-benchmark agree <setA> <setB>";

/// What the arguments asked for, besides the run options.
struct RunArgs {
    options: Options,
    report: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Res<RunArgs> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 20;
    let mut trace = false;
    let mut smoke = false;
    let mut data_root = None;
    let mut report = None;
    let mut trace_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse::<u64>()?),
            "--seconds" => seconds = value()?.parse::<u64>()?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`").into()),
                }
            }
            "--smoke" => smoke = true,
            "--data-dir" => data_root = Some(PathBuf::from(value()?)),
            "--report" => report = Some(PathBuf::from(value()?)),
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}").into()),
        }
    }
    if smoke {
        seconds = seconds.min(2);
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(RunArgs {
        options: Options {
            workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
            seed: seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?,
            seconds,
            trace,
            smoke,
            data_root,
            trace_out,
        },
        report,
    })
}

fn main_inner() -> Res<bool> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let decl = Declaration::embedded()?;
    if args.first().map(String::as_str) == Some("agree") {
        let [_, a, b] = args.as_slice() else {
            return Err(USAGE.into());
        };
        return agree::run(&decl, a, b);
    }
    let RunArgs {
        options,
        report: report_path,
    } = parse_run(&args)?;
    // Before any thread is spawned, so every thread inherits the mask.
    let pinned_cpu = pin_to_one_cpu();
    let outcome = run(&options)?;
    let full = report(&options, &outcome, &decl, pinned_cpu)?.render();
    match report_path {
        Some(path) => {
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            writeln!(file, "{full}")?;
        }
        None => eprintln!("{full}"),
    }
    println!("{}", outcome.result(decl.metrics(options.trace))?.render());
    Ok(outcome.correct)
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("sae-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
