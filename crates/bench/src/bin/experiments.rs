//! Command-line driver that regenerates the paper's evaluation.
//!
//! ```text
//! cargo run --release -p sae-bench --bin experiments -- all
//! cargo run --release -p sae-bench --bin experiments -- fig6 --full-scale
//! cargo run --release -p sae-bench --bin experiments -- fig5 --json out.json
//! cargo run --release -p sae-bench --bin experiments -- ablation-scan
//! ```
//!
//! Figures 5–8 share one measurement sweep (each `(distribution, n)` pair is
//! built and queried once); the requested subcommand controls which tables
//! are printed. `--full-scale` switches from the CI-friendly 1/10 scale to
//! the paper's 100 K – 1 M records. Unrecognized arguments are rejected with
//! a nonzero exit instead of being silently ignored. The wall-clock cost of a
//! verified query or a durable write is measured by `benchmark/`, not here.

use sae_bench::{
    print_ablation_memory, print_ablation_scan, print_ablation_updates, print_fig5, print_fig6,
    print_fig7, print_fig8, rows_to_json, run_ablation_memory, run_ablation_scan,
    run_ablation_updates, run_comparison, ExperimentConfig,
};

const USAGE: &str = "usage: experiments \
     <fig5|fig6|fig7|fig8|all|ablation-scan|ablation-updates|ablation-memory> \
     [--full-scale] [--smoke] [--json <path>]

exit codes (shared convention with sae-analyzer):
    0  all experiments ran and every row verified
    1  at least one row failed verification
    2  usage or I/O error";

/// Everything the command line can express, parsed strictly: an unknown
/// command or flag is a usage error (exit 2) instead of being ignored.
struct Cli {
    command: String,
    full_scale: bool,
    smoke: bool,
    json_path: Option<String>,
}

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, String> {
        let Some((command, flags)) = args.split_first() else {
            return Err("missing command".to_string());
        };
        if command.starts_with('-') {
            return Err(format!("expected a command before flags, got `{command}`"));
        }
        // Which flags each command actually consumes; anything else is a
        // rejected typo, not a silent no-op. `main`'s dispatch match derives
        // its arms from this same table (see the unreachable fallback there).
        let allowed: &[&str] = match command.as_str() {
            "fig5" | "fig6" | "fig7" | "fig8" | "all" => &["--full-scale", "--smoke", "--json"],
            "ablation-scan" | "ablation-updates" | "ablation-memory" => {
                &["--full-scale", "--smoke"]
            }
            other => return Err(format!("unknown command `{other}`")),
        };
        let mut cli = Cli {
            command: command.clone(),
            full_scale: false,
            smoke: false,
            json_path: None,
        };
        let mut it = flags.iter();
        while let Some(flag) = it.next() {
            if !allowed.contains(&flag.as_str()) {
                return Err(format!(
                    "unrecognized argument `{flag}` for command `{command}`"
                ));
            }
            match flag.as_str() {
                "--full-scale" => cli.full_scale = true,
                "--smoke" => cli.smoke = true,
                "--json" => match it.next() {
                    Some(path) => cli.json_path = Some(path.clone()),
                    None => return Err("--json requires a path argument".to_string()),
                },
                _ => unreachable!("flag validated against the applicability table"),
            }
        }
        if cli.full_scale && cli.smoke {
            return Err("--full-scale and --smoke are mutually exclusive".to_string());
        }
        Ok(cli)
    }
}

fn write_json(path: &str, json: String) -> Result<(), String> {
    std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
    println!("\nwrote raw rows to {path}");
    Ok(())
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match Cli::parse(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            return std::process::ExitCode::from(2);
        }
    };
    match run(&cli) {
        Ok(true) => std::process::ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: at least one experiment row failed verification");
            std::process::ExitCode::from(1)
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::ExitCode::from(2)
        }
    }
}

/// Runs the requested experiment. Returns whether every row that carries a
/// verification verdict verified (the ablations measure cost only and always
/// count as verified); I/O failures surface as `Err` (exit 2).
fn run(cli: &Cli) -> Result<bool, String> {
    let config = if cli.full_scale {
        ExperimentConfig::full_scale()
    } else if cli.smoke {
        ExperimentConfig::smoke()
    } else {
        ExperimentConfig::scaled()
    };

    println!(
        "SAE vs TOM experiment harness — cardinalities {:?}, {} queries per configuration, \
         record size {} B, 10 ms charged per node access",
        config.cardinalities, config.queries_per_config, config.record_size
    );
    if !cli.full_scale {
        println!(
            "(running at 1/10 of the paper's cardinalities; pass --full-scale for 100K-1M records)"
        );
    }

    let all_verified = match cli.command.as_str() {
        "fig5" | "fig6" | "fig7" | "fig8" | "all" => {
            let rows = run_comparison(&config);
            match cli.command.as_str() {
                "fig5" => print_fig5(&rows),
                "fig6" => print_fig6(&rows),
                "fig7" => print_fig7(&rows),
                "fig8" => print_fig8(&rows),
                _ => {
                    print_fig5(&rows);
                    print_fig6(&rows);
                    print_fig7(&rows);
                    print_fig8(&rows);
                }
            }
            if let Some(path) = &cli.json_path {
                write_json(path, rows_to_json(&rows))?;
            }
            rows.iter().all(|r| r.sae.verified && r.tom.verified)
        }
        "ablation-scan" => {
            print_ablation_scan(&run_ablation_scan(&config));
            true
        }
        "ablation-updates" => {
            print_ablation_updates(&run_ablation_updates(&config, 200));
            true
        }
        "ablation-memory" => {
            let dir = std::env::temp_dir().join("sae-ablation-memory");
            std::fs::create_dir_all(&dir)
                .map_err(|e| format!("creating {}: {e}", dir.display()))?;
            print_ablation_memory(&run_ablation_memory(&config, &dir));
            let _ = std::fs::remove_dir_all(&dir);
            true
        }
        _ => unreachable!("command validated by Cli::parse's applicability table"),
    };
    Ok(all_verified)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn rejects_unknown_commands_and_flags() {
        assert!(Cli::parse(&strings(&[])).is_err());
        assert!(Cli::parse(&strings(&["frobnicate"])).is_err());
        assert!(Cli::parse(&strings(&["--smoke"])).is_err());
        assert!(Cli::parse(&strings(&["fig5", "--bogus"])).is_err());
        assert!(Cli::parse(&strings(&["fig5", "--zipf"])).is_err());
        // Retired experiments are unknown commands.
        for retired in [
            "throughput",
            "sharded-throughput",
            "durability",
            "wal",
            "net",
            "group-commit",
            "replicas",
            "fanout",
        ] {
            assert!(Cli::parse(&strings(&[retired, "--smoke"])).is_err());
        }
        assert!(Cli::parse(&strings(&["fig5", "--json"])).is_err());
        assert!(Cli::parse(&strings(&["fig5", "--full-scale", "--smoke"])).is_err());
    }

    #[test]
    fn parses_valid_invocations() {
        let cli = Cli::parse(&strings(&["fig6", "--smoke", "--json", "out.json"])).unwrap();
        assert_eq!(cli.command, "fig6");
        assert!(cli.smoke);
        assert!(!cli.full_scale);
        assert_eq!(cli.json_path.as_deref(), Some("out.json"));
        let cli = Cli::parse(&strings(&["ablation-scan", "--full-scale"])).unwrap();
        assert_eq!(cli.command, "ablation-scan");
        assert!(cli.full_scale);
        assert_eq!(cli.json_path, None);
        // --json exists, but the ablations do not consume it.
        assert!(Cli::parse(&strings(&["ablation-scan", "--json", "a.json"])).is_err());
    }
}
