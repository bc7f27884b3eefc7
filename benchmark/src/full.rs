//! `full`: every workload, untraced then traced, each in a fresh child
//! process of this binary (clean peak RSS, no cache or pool state carried
//! between workloads), gathered into `benchmark/out/results.json`.
//! `selfcheck` runs two such sets of the same build and compares them.

use crate::compare;
use crate::run::{detail_path, out_dir};
use crate::spec::{self, Kind};
use pgxd_runtime::telemetry::export::json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

pub struct FullArgs {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
}

/// First line of `cmd`'s output, or "unknown" when it cannot run (the
/// benchmark also runs in checkouts that are not git repositories).
fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn host_record() -> Value {
    Value::obj(vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .into(),
        ),
        ("rustc", first_line("rustc", &["-V"]).into()),
        ("commit", first_line("git", &["rev-parse", "HEAD"]).into()),
        ("os", std::env::consts::OS.into()),
        ("arch", std::env::consts::ARCH.into()),
    ])
}

/// Runs one workload in a child process and returns its detail document.
fn run_child(kind: Kind, trace: bool, args: &FullArgs) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", kind.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    // The child's own watchdog bounds its run time; its tables go to our
    // stderr, its result line is read back here.
    let started = std::time::Instant::now();
    let output = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", kind.name()))?;
    eprintln!(
        "-- {} {} took {:.1} s",
        kind.name(),
        if trace { "traced" } else { "untraced" },
        started.elapsed().as_secs_f64()
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let result = Value::parse(line).map_err(|e| {
        format!(
            "{} ({}) printed no result line (exit {:?}): {e}",
            kind.name(),
            if trace { "traced" } else { "untraced" },
            output.status.code()
        )
    })?;
    if !output.status.success() || result.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!(
            "{} failed its correctness gate: {line}",
            kind.name()
        ));
    }
    let path = detail_path(kind, trace);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path:?}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("parse {path:?}: {e}"))
}

fn field(doc: &Value, key: &str) -> Value {
    doc.get(key).cloned().unwrap_or(Value::Null)
}

/// Runs the whole set and writes it to `path`.
pub fn full(args: &FullArgs, path: &Path) -> Result<Value, String> {
    let mut workloads = Vec::new();
    for kind in Kind::ALL {
        let untraced = run_child(kind, false, args)?;
        let traced = run_child(kind, true, args)?;
        let sum = |key: &str| {
            let get = |d: &Value| d.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            get(&untraced) + get(&traced)
        };
        workloads.push((
            kind.name(),
            Value::obj(vec![
                ("why", kind.why().into()),
                ("topology", field(&untraced, "topology")),
                ("attempted", sum("attempted").into()),
                ("failed", sum("failed").into()),
                ("end_to_end", field(&untraced, "metrics")),
                ("per_layer", field(&traced, "metrics")),
            ]),
        ));
    }
    let doc = Value::obj(vec![
        ("schema", "pgxd-benchmark-v1".into()),
        ("host", host_record()),
        ("seed", args.seed.into()),
        ("seconds", args.seconds.into()),
        ("quick", args.quick.into()),
        ("workloads", Value::obj(workloads)),
    ]);
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("create {:?}: {e}", out_dir()))?;
    std::fs::write(path, doc.to_pretty()).map_err(|e| format!("write {path:?}: {e}"))?;
    print_summary(&doc);
    eprintln!("results -> {}", path.display());
    Ok(doc)
}

/// Every metric by name, with unit and sample count.
fn print_summary(doc: &Value) {
    println!(
        "{:<13} {:<36} {:>16} {:<6} {:>5} {:>8}",
        "workload", "metric", "median", "unit", "n", "iqr %"
    );
    for kind in Kind::ALL {
        let Some(w) = doc.get("workloads").and_then(|w| w.get(kind.name())) else {
            continue;
        };
        for (section, metrics) in [
            ("end_to_end", &spec::END_TO_END[..]),
            ("per_layer", &spec::PER_LAYER[..]),
        ] {
            for m in metrics {
                let Some(v) = compare::sample(w.get(section), m.name) else {
                    continue;
                };
                println!(
                    "{:<13} {:<36} {:>16.6} {:<6} {:>5} {:>8.2}",
                    kind.name(),
                    m.name,
                    v.value,
                    m.unit,
                    v.n,
                    v.spread * 100.0
                );
            }
        }
        let num = |k: &str| w.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        println!(
            "{:<13} {:<36} {:>16.6} {:<6} {:>5}",
            kind.name(),
            "fail_ratio",
            num("failed") / num("attempted").max(1.0),
            "ratio",
            num("attempted")
        );
    }
}

pub fn results_path() -> PathBuf {
    out_dir().join("results.json")
}

/// Two full sets of the same build must agree within the benchmark's own
/// bounds, and exactly on the counts that must repeat.
pub fn selfcheck(args: &FullArgs) -> Result<bool, String> {
    let a = full(args, &out_dir().join("selfcheck-a.json"))?;
    let b = full(args, &out_dir().join("selfcheck-b.json"))?;
    let rows = compare::compare(&a, &b);
    compare::print_rows(&rows);
    Ok(!rows.iter().any(|r| r.status.fails()))
}
