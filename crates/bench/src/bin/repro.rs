//! `repro` — regenerates every table and figure of the PGX.D paper.
//!
//! ```text
//! cargo run -p pgxd-bench --release --bin repro -- all            # quick scale
//! cargo run -p pgxd-bench --release --bin repro -- table3 --full # 8× larger graphs
//! cargo run -p pgxd-bench --release --bin repro -- fig6 fig8 -v
//! cargo run -p pgxd-bench --release --bin repro -- --telemetry out/
//! ```
//!
//! Text tables print to stdout; machine-readable JSON lands in `results/`.
//! `--telemetry <dir>` runs an instrumented 4-machine PageRank and writes
//! `<dir>/trace.json` (Perfetto-viewable) plus `<dir>/report.json`.
//! Performance is measured by the repository benchmark, `bash
//! benchmark/run.sh`, not here.
//!
//! `repro --help` lists every experiment; an unknown experiment name
//! exits non-zero with the same list.

use pgxd_bench::datasets::Scale;
use pgxd_bench::experiments::{ExperimentInfo, RunArgs, EXPERIMENTS};
use std::path::PathBuf;

/// Renders the experiment list, one aligned line per registry entry.
fn experiment_list() -> String {
    let w = EXPERIMENTS.iter().map(|e| e.name.len()).max().unwrap_or(0);
    EXPERIMENTS
        .iter()
        .map(|e| format!("  {:<w$}  {}", e.name, e.desc))
        .collect::<Vec<_>>()
        .join("\n")
}

fn print_help() {
    println!(
        "repro — regenerates the PGX.D paper's tables and figures\n\n\
         usage: repro [EXPERIMENT...] [--full] [-v|--verbose] [--telemetry DIR] [--quick]\n\n\
         experiments (default: the table/figure set; `all` also selects it):\n{}\n\n\
         flags:\n  \
         --full             8× larger graphs (default is quick scale)\n  \
         -v, --verbose      per-run progress on stderr\n  \
         --telemetry DIR    write trace.json + report.json under DIR\n  \
         --quick            shrink the acceptance sweeps that take it, for CI\n  \
         -h, --help         this list",
        experiment_list()
    );
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        print_help();
        return;
    }
    // `--telemetry <dir>` consumes its operand so it isn't mistaken for an
    // experiment name.
    let mut telemetry_dir: Option<PathBuf> = None;
    if let Some(i) = args.iter().position(|a| a == "--telemetry") {
        args.remove(i);
        if i < args.len() && !args[i].starts_with('-') {
            telemetry_dir = Some(PathBuf::from(args.remove(i)));
        } else {
            eprintln!("--telemetry requires an output directory");
            std::process::exit(2);
        }
    }
    let run_args = RunArgs {
        scale: Scale::from_args(&args),
        verbose: args.iter().any(|a| a == "-v" || a == "--verbose"),
        quick: args.iter().any(|a| a == "--quick"),
        telemetry_dir,
    };
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with('-'))
        .map(|s| s.as_str())
        .collect();
    let wanted: Vec<&str> = if !wanted.is_empty() && !wanted.contains(&"all") {
        wanted
    } else if run_args.telemetry_dir.is_some() && wanted.is_empty() {
        // Bare `--telemetry <dir>` runs just the instrumented demo.
        vec!["telemetry"]
    } else {
        vec![
            "table3", "table4", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
        ]
    };

    let selected: Vec<&ExperimentInfo> = wanted
        .iter()
        .map(|name| {
            EXPERIMENTS
                .iter()
                .find(|e| e.name == *name)
                .unwrap_or_else(|| {
                    eprintln!("unknown experiment '{name}'\n\nknown experiments (or `all`):");
                    eprintln!("{}", experiment_list());
                    std::process::exit(2);
                })
        })
        .collect();

    eprintln!(
        "# PGX.D reproduction harness — scale: {:?}, experiments: {wanted:?}",
        run_args.scale
    );
    for exp in selected {
        let t0 = std::time::Instant::now();
        eprintln!("== {} ==", exp.name);
        (exp.run)(&run_args);
        eprintln!(
            "== {} done in {:.1}s ==\n",
            exp.name,
            t0.elapsed().as_secs_f64()
        );
    }
}
