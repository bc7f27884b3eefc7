//! The repository benchmark: seven workloads, end-to-end and per-layer
//! metrics, driven through the public APIs of `crates/*` only.
//!
//! ```text
//! pgxd-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! pgxd-benchmark full      [--seed <n>] [--seconds <s>] [--quick]
//! pgxd-benchmark selfcheck [--seed <n>] [--seconds <s>] [--quick]
//! pgxd-benchmark compare A.json B.json
//! pgxd-benchmark spec
//! ```
//!
//! The first form is one run of one workload; its last line on standard
//! output is the result object. See `benchmark/README.md`.

mod affinity;
mod clock;
mod compare;
mod full;
mod kernels;
mod run;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::process::ExitCode;

fn usage() -> String {
    format!(
        "usage:
  pgxd-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
  pgxd-benchmark full      [--seed <n>] [--seconds <s>] [--quick]
  pgxd-benchmark selfcheck [--seed <n>] [--seconds <s>] [--quick]
  pgxd-benchmark compare A.json B.json
  pgxd-benchmark spec
default seed {}; hold-out seed {} (a claimed gain must also hold on it)",
        spec::DEFAULT_SEED,
        spec::HOLDOUT_SEED
    )
}

/// `--flag value` pairs plus bare `--quick`; anything else is an error.
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            flags.quick = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => flags.workload = Some(value.to_string()),
            "--seed" => flags.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                flags.seconds = Some(s);
            }
            "--trace" => {
                flags.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(flags)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let full_args = |rest: &[String]| -> Result<full::FullArgs, String> {
        let flags = parse_flags(rest)?;
        let default_seconds = if flags.quick {
            0.5
        } else {
            spec::RUN_SECONDS as f64
        };
        Ok(full::FullArgs {
            seed: flags.seed,
            seconds: flags.seconds.unwrap_or(default_seconds),
            quick: flags.quick,
        })
    };
    match args.first().map(String::as_str) {
        Some("spec") => {
            println!("{}", spec::benchmark_json().to_pretty());
            Ok(true)
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare_files(a, b),
            _ => Err("compare takes two result files".into()),
        },
        Some("full") => full::full(&full_args(&args[1..])?, &full::results_path()).map(|_| true),
        Some("selfcheck") => full::selfcheck(&full_args(&args[1..])?),
        _ => {
            let flags = parse_flags(args)?;
            let name = flags.workload.ok_or("--workload is required")?;
            let kind = spec::Kind::parse(&name).ok_or_else(|| {
                let known: Vec<_> = spec::Kind::ALL.iter().map(|k| k.name()).collect();
                format!("unknown workload {name}; known: {}", known.join(" "))
            })?;
            run::run(&run::RunArgs {
                kind,
                seed: flags.seed,
                seconds: flags.seconds.unwrap_or(spec::RUN_SECONDS as f64),
                trace: flags.trace,
                quick: flags.quick,
            })
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{}", usage());
        return ExitCode::from(if args.is_empty() { 2 } else { 0 });
    }
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pgxd-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
