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
use pgxd_bench::experiments::*;
use pgxd_bench::report::{results_dir, Table};
use std::path::PathBuf;

fn emit(tables: &[Table], slug: &str) {
    let dir = results_dir();
    for (i, t) in tables.iter().enumerate() {
        println!("{}", t.render());
        let name = if tables.len() == 1 {
            slug.to_string()
        } else {
            format!("{slug}_{i}")
        };
        if let Some(p) = t.save_json(&dir, &name) {
            eprintln!("[saved {}]", p.display());
        }
    }
}

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
    let scale = Scale::from_args(&args);
    let verbose = args.iter().any(|a| a == "-v" || a == "--verbose");
    let quick = args.iter().any(|a| a == "--quick");
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with('-'))
        .map(|s| s.as_str())
        .collect();
    let wanted: Vec<&str> = if !wanted.is_empty() && !wanted.contains(&"all") {
        wanted
    } else if telemetry_dir.is_some() && wanted.is_empty() {
        // Bare `--telemetry <dir>` runs just the instrumented demo.
        vec!["telemetry"]
    } else {
        vec![
            "table3", "table4", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
        ]
    };

    for exp in &wanted {
        if !EXPERIMENTS.iter().any(|e| e.name == *exp) {
            eprintln!("unknown experiment '{exp}'\n\nknown experiments (or `all`):");
            eprintln!("{}", experiment_list());
            std::process::exit(2);
        }
    }

    eprintln!("# PGX.D reproduction harness — scale: {scale:?}, experiments: {wanted:?}");
    for exp in wanted {
        let t0 = std::time::Instant::now();
        eprintln!("== {exp} ==");
        match exp {
            "table3" => emit(&table3::run_experiment(scale, verbose), "table3"),
            "table4" => emit(&[table4::run_experiment(scale)], "table4"),
            "fig3" => emit(&fig3::run_experiment(scale, verbose), "fig3"),
            "fig4" => emit(&fig4::run_experiment(scale, verbose), "fig4"),
            "fig5" => {
                emit(&[fig5::run_fig5a(scale)], "fig5a");
                emit(&[fig5::run_fig5b()], "fig5b");
            }
            "fig6" => {
                emit(&[fig6::run_fig6a(scale, 4)], "fig6a");
                emit(&[fig6::run_fig6b(scale)], "fig6b");
                emit(&[fig6::run_fig6c(scale, 2)], "fig6c");
            }
            "fig7" => emit(&[fig7::run_experiment(scale, 2)], "fig7"),
            "fig8" => {
                emit(&[fig8::run_fig8a()], "fig8a");
                emit(&[fig8::run_fig8b()], "fig8b");
            }
            "chaos" => emit(&chaos::run_experiment(scale), "chaos"),
            "query" => emit(&query::run_experiment(scale, quick), "query"),
            "commfast" => emit(&commfast::run_experiment(scale), "commfast"),
            "recover" => emit(&recover::run_experiment(scale), "recover"),
            "serve" => emit(&serve::run_experiment(scale), "serve"),
            "soak" => emit(&soak::run_experiment(scale, quick), "soak"),
            "telemetry" => {
                let dir = telemetry_dir
                    .clone()
                    .unwrap_or_else(|| results_dir().join("telemetry"));
                emit(&telemetry::run_experiment(scale, &dir), "telemetry");
            }
            "wire" => emit(&[wire::run_experiment(scale, quick)], "wire"),
            "wire-recover" => emit(
                &[wire_recover::run_experiment(scale, quick)],
                "wire_recover",
            ),
            "verify" => {
                let checks = verify::run_checks(scale);
                let (text, all) = verify::report(&checks);
                println!("{text}");
                if !all {
                    std::process::exit(1);
                }
            }
            other => unreachable!("'{other}' is in EXPERIMENTS but has no dispatch arm"),
        }
        eprintln!("== {exp} done in {:.1}s ==\n", t0.elapsed().as_secs_f64());
    }
}
