//! Cross-crate telemetry integration: the exported Chrome trace and
//! metrics report must be well-formed and complete, and enabling the
//! instruments must not change what the engine puts on the wire.

use pgxd::{BuildEngine, ChunkingMode, Engine, PartitioningMode, TelemetryConfig};
use pgxd_algorithms as algos;
use pgxd_graph::generate::{self, RmatParams};
use pgxd_runtime::stats::StatsSnapshot;
use pgxd_runtime::telemetry::export::json::Value;
use std::collections::BTreeSet;

fn engine(machines: usize, workers: usize, telemetry: bool, g: &pgxd_graph::Graph) -> Engine {
    Engine::builder()
        .machines(machines)
        .workers(workers)
        .copiers(1)
        .ghost_threshold(Some(64))
        .partitioning(PartitioningMode::Edge)
        .chunking(ChunkingMode::Edge)
        .telemetry(TelemetryConfig { enabled: telemetry })
        .engine(g)
        .unwrap()
}

/// The shape signature of a trace: every distinct (pid, tid, name, ph)
/// combination. Timestamps vary run to run; the shape must not.
fn trace_shape(trace: &Value) -> BTreeSet<(u64, u64, String, String)> {
    trace
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents")
        .iter()
        // Pool stalls are genuine back-pressure events: whether one occurs
        // depends on thread timing, so they are not part of the golden
        // shape.
        .filter(|e| e.get("name").and_then(Value::as_str) != Some("pool_stall"))
        .map(|e| {
            (
                e.get("pid").and_then(Value::as_u64).unwrap_or(u64::MAX),
                e.get("tid").and_then(Value::as_u64).unwrap_or(u64::MAX),
                e.get("name")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                e.get("ph")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
            )
        })
        .collect()
}

fn run_pagerank_trace() -> Value {
    let g = generate::rmat(8, 6, RmatParams::skewed(), 2024);
    let mut e = engine(2, 1, true, &g);
    algos::try_pagerank_pull(&mut e, 0.85, 3, 0.0).unwrap();
    Value::parse(&e.cluster().trace_json()).expect("trace parses")
}

/// Golden trace export: a deterministic 2-machine PageRank produces the
/// same set of (pid, tid, name, ph) events on every run, and that set
/// covers phase begin/end pairs plus metadata for both machines.
#[test]
fn golden_trace_shape_is_deterministic() {
    let a = trace_shape(&run_pagerank_trace());
    let b = trace_shape(&run_pagerank_trace());
    assert_eq!(a, b, "trace shape must be reproducible");

    for pid in 0..2u64 {
        assert!(a.contains(&(pid, u64::MAX, "process_name".into(), "M".into())));
        assert!(a.contains(&(pid, 0, "thread_name".into(), "M".into())));
        assert!(a.contains(&(pid, 0, "main".into(), "B".into())));
        assert!(a.contains(&(pid, 0, "main".into(), "E".into())));
        assert!(a.contains(&(pid, 0, "barrier".into(), "B".into())));
        assert!(a.contains(&(pid, 0, "barrier".into(), "E".into())));
        assert!(a.contains(&(pid, 0, "flush".into(), "i".into())));
        assert!(a.contains(&(pid, 0, "ghost_push".into(), "i".into())));
    }
}

/// The metrics report must carry one machine entry per machine, the phase
/// label list, and per-phase wall times consistent with the trace.
#[test]
fn report_covers_every_machine_and_phase() {
    let g = generate::rmat(8, 6, RmatParams::skewed(), 2025);
    let mut e = engine(3, 2, true, &g);
    algos::try_pagerank_pull(&mut e, 0.85, 2, 0.0).unwrap();
    let dir = std::env::temp_dir().join("pgxd-telemetry-e2e");
    let (trace_path, report_path) = e.export_telemetry(&dir).unwrap();
    let trace = Value::parse(&std::fs::read_to_string(trace_path).unwrap()).unwrap();
    let report = Value::parse(&std::fs::read_to_string(report_path).unwrap()).unwrap();

    let phases = report.get("phases").and_then(Value::as_arr).unwrap();
    assert!(
        phases.iter().any(|p| p.as_str() == Some("main")),
        "labeled main phase present"
    );
    let machines = report.get("machines").and_then(Value::as_arr).unwrap();
    assert_eq!(machines.len(), 3);
    for m in machines {
        let walls = m.get("phase_wall_s").and_then(Value::as_arr).unwrap();
        assert_eq!(walls.len(), phases.len());
        // The most recent phases are guaranteed to still be in the ring.
        assert!(walls.last().unwrap().as_f64().is_some());
        let hist = m.get("histograms").unwrap();
        assert!(hist.get("read_rtt_ns").unwrap().get("count").is_some());
    }
    let shape = trace_shape(&trace);
    assert!(shape.iter().any(|(_, _, name, _)| name == "main"));
}

/// Zero-envelope regression: with tracing off, the instruments must not
/// perturb communication — the traffic counters of an identical run match
/// a telemetry-enabled run exactly, and the disabled run records nothing.
#[test]
fn telemetry_does_not_change_traffic() {
    let g = generate::rmat(8, 5, RmatParams::skewed(), 2026);
    let traffic = |telemetry: bool| -> (StatsSnapshot, Engine) {
        let mut e = engine(2, 1, telemetry, &g);
        let before = e.cluster().total_stats();
        algos::try_pagerank_pull(&mut e, 0.85, 3, 0.0).unwrap();
        let after = e.cluster().total_stats();
        (after - before, e)
    };
    let (off, e_off) = traffic(false);
    let (on, _e_on) = traffic(true);
    assert_eq!(off, on, "telemetry must be observation-only");
    assert!(off.msgs_sent > 0, "the workload actually communicates");

    // And the disabled registry captured no events or samples.
    for t in e_off.cluster().telemetries() {
        let (recorded, dropped) = t.trace_volume();
        assert_eq!((recorded, dropped), (0, 0));
        assert_eq!(t.read_rtt_snapshot().count(), 0);
        assert_eq!(t.flush_fill_snapshot().count(), 0);
    }
}
