//! `repro --telemetry <dir>`: runs PageRank-pull on a 4-machine in-process
//! cluster with the telemetry registry enabled, exports `trace.json`
//! (Chrome `trace_event` format — open in Perfetto or chrome://tracing)
//! and `report.json`, and prints summary tables derived from the report.

use crate::datasets::{BenchGraph, Scale};
use crate::report::{phase_table, Table};
use crate::systems::{run_pgx, Algo};
use pgxd::{BuildEngine, ChunkingMode, Engine, PartitioningMode, TelemetryConfig};
use pgxd_runtime::telemetry::export::json::Value;
use std::path::Path;

/// Number of simulated machines used by the telemetry demo run.
pub const MACHINES: usize = 4;

/// Runs the instrumented PageRank, writes `dir/trace.json` and
/// `dir/report.json`, and returns the summary tables.
pub fn run_experiment(scale: Scale, dir: &Path) -> Vec<Table> {
    let g = BenchGraph::Twt.generate(scale);
    let mut engine = Engine::builder()
        .machines(MACHINES)
        .workers(2)
        .copiers(1)
        .ghost_threshold(Some(256))
        .partitioning(PartitioningMode::Edge)
        .chunking(ChunkingMode::Edge)
        .telemetry(TelemetryConfig::on())
        .engine(&g)
        .expect("engine");
    let r = run_pgx(&mut engine, Algo::PrPull);
    eprintln!("[PR-pull on {MACHINES} machines: {:.3}s]", r.seconds);
    let (trace, report) = engine.export_telemetry(dir).expect("telemetry export");
    eprintln!("[trace  -> {}]", trace.display());
    eprintln!("[report -> {}]", report.display());

    let doc = Value::parse(&std::fs::read_to_string(&report).expect("read report"))
        .expect("report parses");
    let mut tables = Vec::new();
    if let Some(t) = phase_table(&doc) {
        tables.push(t);
    }
    if let Some(t) = histogram_table(&doc) {
        tables.push(t);
    }
    tables
}

/// Cluster-wide histogram summary: one row per instrument, quantile
/// columns.
fn histogram_table(report: &Value) -> Option<Table> {
    let hists = report.get("cluster_histograms")?;
    let names = match hists {
        Value::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
        _ => return None,
    };
    let mut t = Table::new(
        "Telemetry — cluster-wide histograms",
        vec![
            "count".into(),
            "mean".into(),
            "p50".into(),
            "p90".into(),
            "p99".into(),
        ],
        "time instruments in ns; fill in %; occupancy/claims in entries",
    );
    for name in names {
        let h = hists.get(&name)?;
        let field = |k: &str| h.get(k).and_then(Value::as_f64);
        t.push_row(
            &name,
            vec![
                field("count"),
                field("mean"),
                field("p50"),
                field("p90"),
                field("p99"),
            ],
        );
    }
    Some(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Acceptance: a 4-machine run must emit a parseable Chrome trace with
    /// phase and flush events for every machine, and a metrics report with
    /// one entry per machine.
    #[test]
    fn four_machine_run_emits_complete_trace() {
        let dir = std::env::temp_dir().join("pgxd-telemetry-accept");
        let tables = run_experiment(Scale::Quick, &dir);
        assert!(!tables.is_empty(), "summary tables derived from report");

        let trace = Value::parse(&std::fs::read_to_string(dir.join("trace.json")).unwrap())
            .expect("trace.json is valid JSON");
        let events = trace
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("traceEvents array");
        for pid in 0..MACHINES as u64 {
            let has = |name: &str| {
                events.iter().any(|e| {
                    e.get("pid").and_then(Value::as_u64) == Some(pid)
                        && e.get("name").and_then(Value::as_str) == Some(name)
                })
            };
            // Every machine ran the labeled main phase and flushed at
            // least one buffer.
            assert!(has("main"), "machine {pid} has a main-phase event");
            assert!(has("flush"), "machine {pid} has a flush event");
        }

        let report = Value::parse(&std::fs::read_to_string(dir.join("report.json")).unwrap())
            .expect("report.json is valid JSON");
        let machines = report.get("machines").and_then(Value::as_arr).unwrap();
        assert_eq!(machines.len(), MACHINES);
        assert!(report.get("last_job_breakdown").is_some());
    }
}
