//! End-to-end per-job cost attribution: three concurrent sessions run
//! jobs through the serve layer and every completion's [`JobReport`]
//! must carry a per-job execution record whose wire and time attribution
//! reconciles with the machine-level totals — jobs are serialized on the
//! dispatcher, so summing the per-job windows has to recover (almost)
//! everything the machines did, with only inter-job background traffic
//! (heartbeats, stray acks) left over. The Chrome trace export must grow
//! a per-job span lane for each served job.
//!
//! [`JobReport`]: pgxd::serve::JobReport

use pgxd::serve::{JobOutcome, JobReport, Lane};
use pgxd::{BuildEngine, Engine, TelemetryConfig};
use pgxd_algorithms as algos;
use pgxd_graph::generate::{self, RmatParams};
use pgxd_runtime::stats::StatsSnapshot;
use pgxd_runtime::telemetry::export::json::Value;
use std::time::Duration;

const MACHINES: usize = 4;

fn engine(g: &pgxd_graph::Graph) -> Engine {
    Engine::builder()
        .machines(MACHINES)
        .workers(2)
        .copiers(1)
        .telemetry(TelemetryConfig::on())
        .engine(g)
        .unwrap()
}

#[test]
fn job_reports_reconcile_with_machine_totals() {
    let g = generate::rmat(8, 6, RmatParams::skewed(), 4107);
    let engine = engine(&g);
    // Machine-level counters survive `into_server` via their Arcs, so the
    // ground truth is read outside the serve layer entirely.
    let machine_stats: Vec<_> = engine
        .cluster()
        .machines()
        .iter()
        .map(|m| m.stats.clone())
        .collect();
    let totals = |stats: &[std::sync::Arc<pgxd_runtime::stats::MachineStats>]| {
        stats
            .iter()
            .map(|s| s.snapshot())
            .fold(StatsSnapshot::default(), |a, b| a + b)
    };
    let before = totals(&machine_stats);

    let server = engine.into_server();
    let reports: Vec<JobReport> = std::thread::scope(|scope| {
        let pr = scope.spawn(|| {
            let session = server.session("ranker");
            let (res, report) = session
                .submit(Lane::Interactive, 4, |e: &mut Engine, cancel| {
                    Ok(algos::try_pagerank_pull_with(e, 0.85, 8, 0.0, cancel)?.scores)
                })
                .unwrap()
                .join_with_report();
            res.unwrap();
            report.unwrap()
        });
        let wcc = scope.spawn(|| {
            let session = server.session("components");
            let (res, report) = session
                .submit(Lane::Batch, 3, |e: &mut Engine, cancel| {
                    Ok(algos::try_wcc_with(e, cancel)?.component)
                })
                .unwrap()
                .join_with_report();
            res.unwrap();
            report.unwrap()
        });
        let hops = scope.spawn(|| {
            let session = server.session("bfs");
            let (res, report) = session
                .submit(Lane::Interactive, 3, |e: &mut Engine, _| {
                    Ok(algos::try_hopdist(e, 0)?.hops)
                })
                .unwrap()
                .join_with_report();
            res.unwrap();
            report.unwrap()
        });
        vec![
            pr.join().unwrap(),
            wcc.join().unwrap(),
            hops.join().unwrap(),
        ]
    });
    let engine = server.shutdown();
    let after = totals(&machine_stats);

    // --- per-job execution records -------------------------------------
    let mut sessions = std::collections::HashSet::new();
    for r in &reports {
        assert_eq!(r.outcome, JobOutcome::Done);
        sessions.insert(r.session);
        let exec = r.exec.as_ref().expect("cluster engine tracks JobExec");
        assert_eq!(exec.ctx.job, r.job);
        assert!(r.run > Duration::ZERO);
        // Time attribution: each lane of the breakdown ran, and their sum
        // cannot meaningfully exceed the time the job held the cluster
        // (slack covers timer skew around phase edges).
        let attributed = r.compute() + r.comm() + r.drain() + r.checkpoint();
        assert!(r.compute() > Duration::ZERO, "job {} compute", r.job);
        assert!(r.comm() > Duration::ZERO, "job {} comm", r.job);
        assert!(r.drain() > Duration::ZERO, "job {} drain", r.job);
        assert!(
            attributed <= r.run.mul_f64(1.25) + Duration::from_millis(50),
            "job {}: attributed {attributed:?} vs run {:?}",
            r.job,
            r.run
        );
        // The job's counter window is its wire cost.
        assert!(r.wire_bytes() > 0, "job {} sent payload bytes", r.job);
        assert!(r.wire_msgs() > 0);
        // Causal span skeleton: phases were reconstructed from the tracer.
        assert!(!r.phases().is_empty(), "job {} has phase spans", r.job);
    }
    assert_eq!(sessions.len(), 3, "three distinct sessions reported");

    // --- attribution sums to machine-level totals ----------------------
    // Jobs are serialized on the dispatcher, so their stat windows are
    // disjoint: the sum can never exceed the machine delta, and all that
    // may be missing is inter-job background traffic (heartbeats carry
    // empty payloads, so the byte ledger should be nearly exact).
    let job_bytes: u64 = reports
        .iter()
        .map(|r| r.exec.as_ref().unwrap().traffic.bytes_sent)
        .sum();
    let job_msgs: u64 = reports
        .iter()
        .map(|r| r.exec.as_ref().unwrap().traffic.msgs_sent)
        .sum();
    let machine_bytes = after.bytes_sent - before.bytes_sent;
    let machine_msgs = after.msgs_sent - before.msgs_sent;
    assert!(machine_bytes > 0 && machine_msgs > 0);
    assert!(
        job_bytes <= machine_bytes,
        "job windows are disjoint: {job_bytes} vs {machine_bytes}"
    );
    assert!(
        job_bytes * 10 >= machine_bytes * 9,
        "per-job byte attribution covers >= 90% of machine totals \
         ({job_bytes} of {machine_bytes})"
    );
    assert!(job_msgs <= machine_msgs);
    assert!(
        job_msgs * 2 >= machine_msgs,
        "per-job message attribution covers >= 50% of machine totals \
         ({job_msgs} of {machine_msgs}; the rest is heartbeats/acks)"
    );

    // --- Chrome trace grows per-job span lanes -------------------------
    let trace = Value::parse(&engine.cluster().trace_json()).expect("trace parses");
    let events = trace
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents");
    let jobs_pid = MACHINES as u64;
    let job_lane_named = events.iter().any(|e| {
        e.get("ph").and_then(Value::as_str) == Some("M")
            && e.get("pid").and_then(Value::as_u64) == Some(jobs_pid)
            && e.get("name").and_then(Value::as_str) == Some("process_name")
    });
    assert!(job_lane_named, "synthetic 'jobs' process is labeled");
    for r in &reports {
        let has_run_span = events.iter().any(|e| {
            e.get("ph").and_then(Value::as_str) == Some("B")
                && e.get("pid").and_then(Value::as_u64) == Some(jobs_pid)
                && e.get("tid").and_then(Value::as_u64) == Some(r.job)
                && e.get("name")
                    .and_then(Value::as_str)
                    .is_some_and(|n| n.starts_with("run job"))
        });
        assert!(has_run_span, "job {} has a run span in its lane", r.job);
    }
}

/// A cancelled-in-queue job produces no report; a dispatched job that
/// fails still reports, with the `Failed` outcome and its queue/run
/// split.
#[test]
fn failed_jobs_still_report() {
    let g = generate::ring(64);
    let server = engine(&g).into_server();
    let session = server.session("t");
    let (res, report) = session
        .submit(Lane::Interactive, 1, |_: &mut Engine, _| {
            Err::<(), _>(pgxd::JobError::Protocol("synthetic failure".into()))
        })
        .unwrap()
        .join_with_report();
    assert!(res.is_err());
    let r = report.expect("dispatched jobs always report");
    assert_eq!(r.outcome, JobOutcome::Failed);
    assert!(r.exec.is_some(), "window closed even on failure");
    drop(session);
    server.shutdown();
}
