//! End-to-end job-server tests: concurrent sessions over one shared
//! graph produce bit-identical results to solo runs, cancellation frees
//! a job's columns, deadlines surface as structured errors, and the
//! serving telemetry is populated.

use pgxd::serve::{JobHandle, Lane, ServeEngine};
use pgxd::{BuildEngine, Engine, JobError, JobSpec, TelemetryConfig};
use pgxd_algorithms as algos;
use pgxd_graph::generate::{self, RmatParams};
use std::sync::mpsc;
use std::time::Duration;

fn engine(machines: usize, g: &pgxd_graph::Graph) -> Engine {
    Engine::builder()
        .machines(machines)
        .workers(2)
        .copiers(1)
        .engine(g)
        .unwrap()
}

/// Three clients on three threads, each running a different algorithm
/// against one served graph. Integer-valued results (WCC labels, hop
/// counts) must be bit-identical to solo runs; PageRank floats are held
/// to 1e-12 — worker interleaving reassociates f64 sums, so even two
/// fresh solo runs differ in the last ulp.
#[test]
fn concurrent_sessions_match_solo_runs() {
    let g = generate::rmat(8, 6, RmatParams::skewed(), 4101);

    let mut solo = engine(4, &g);
    let solo_pr = algos::try_pagerank_pull(&mut solo, 0.85, 12, 0.0)
        .unwrap()
        .scores;
    let solo_wcc = algos::try_wcc(&mut solo).unwrap().component;
    let solo_hops = algos::try_hopdist(&mut solo, 0).unwrap().hops;
    drop(solo);

    let server = engine(4, &g).into_server();
    let (pr, wcc, hops) = std::thread::scope(|scope| {
        let pr = scope.spawn(|| {
            let session = server.session("ranker");
            session
                .submit(Lane::Interactive, 4, |e: &mut Engine, cancel| {
                    Ok(algos::try_pagerank_pull_with(e, 0.85, 12, 0.0, cancel)?.scores)
                })
                .unwrap()
                .join()
                .unwrap()
        });
        let wcc = scope.spawn(|| {
            let session = server.session("components");
            session
                .submit(Lane::Batch, 3, |e: &mut Engine, cancel| {
                    Ok(algos::try_wcc_with(e, cancel)?.component)
                })
                .unwrap()
                .join()
                .unwrap()
        });
        let hops = scope.spawn(|| {
            let session = server.session("bfs");
            session
                .submit(Lane::Interactive, 3, |e: &mut Engine, _| {
                    Ok(algos::try_hopdist(e, 0)?.hops)
                })
                .unwrap()
                .join()
                .unwrap()
        });
        (
            pr.join().unwrap(),
            wcc.join().unwrap(),
            hops.join().unwrap(),
        )
    });

    assert_eq!(pr.len(), solo_pr.len());
    for (a, b) in pr.iter().zip(&solo_pr) {
        assert!((a - b).abs() <= 1e-12, "served {a} vs solo {b}");
    }
    assert_eq!(wcc, solo_wcc, "WCC labels must be bit-identical");
    assert_eq!(hops, solo_hops, "hop counts must be bit-identical");

    let engine = server.shutdown();
    assert_eq!(
        engine.live_prop_ids().len(),
        0,
        "algorithms clean up their scratch columns"
    );
}

/// A job cancelled mid-flight surfaces `JobError::Cancelled` after its
/// current phase and the server reclaims every column the job created.
#[test]
fn mid_flight_cancel_frees_columns() {
    let g = generate::ring(64);
    let server = engine(2, &g).into_server();
    let session = server.session("victim");

    let (started_tx, started_rx) = mpsc::channel::<()>();
    let handle: JobHandle<()> = session
        .submit(Lane::Batch, 2, move |e: &mut Engine, cancel| {
            let a = e.add_prop("scratch_a", 0i64);
            let _b = e.add_prop("scratch_b", 0.0f64);
            started_tx.send(()).unwrap();
            // Keep running one phase at a time until the token fires; the
            // engine bails at a phase boundary with the structured error.
            loop {
                e.try_run_node_job_with(
                    &JobSpec::new(),
                    pgxd::tasks::on_node(move |ctx| {
                        let v: i64 = ctx.get(a);
                        ctx.set(a, v + 1);
                    }),
                    cancel,
                )?;
            }
        })
        .unwrap();

    started_rx.recv().unwrap();
    let job_id = handle.id();
    handle.cancel();
    match handle.join() {
        Err(JobError::Cancelled { job }) => assert_eq!(job, job_id),
        other => panic!("expected Cancelled, got {other:?}"),
    }

    // The cancelled job's columns are reclaimed immediately — a later job
    // in the same server sees a clean slate.
    let probe = session
        .submit(Lane::Interactive, 0, |e: &mut Engine, _| {
            Ok(e.live_prop_ids().len())
        })
        .unwrap();
    assert_eq!(probe.join().unwrap(), 0, "cancelled job leaked columns");

    drop(session);
    server.shutdown();
}

/// A deadline armed at submit covers queue wait plus run time and maps to
/// `JobError::DeadlineExceeded`.
#[test]
fn deadline_cancels_long_job() {
    let g = generate::ring(32);
    let server = engine(2, &g).into_server();
    let session = server.session("slow");
    let handle: JobHandle<()> = session
        .submit_with_deadline(
            Lane::Batch,
            1,
            Duration::from_millis(30),
            |e: &mut Engine, cancel| {
                let p = e.add_prop("spin", 0i64);
                loop {
                    e.try_run_node_job_with(
                        &JobSpec::new(),
                        pgxd::tasks::on_node(move |ctx| {
                            let v: i64 = ctx.get(p);
                            ctx.set(p, v + 1);
                        }),
                        cancel,
                    )?;
                }
            },
        )
        .unwrap();
    assert!(matches!(
        handle.join(),
        Err(JobError::DeadlineExceeded { .. })
    ));
    drop(session);
    let engine = server.shutdown();
    assert_eq!(engine.live_prop_ids().len(), 0);
    let stats = engine.cluster().telemetries()[0].stats().snapshot();
    assert_eq!(stats.jobs_deadline_missed, 1);
}

/// Closing a session cancels its queued jobs and reclaims the columns its
/// finished jobs created, without touching other sessions' columns.
#[test]
fn session_close_is_isolated() {
    let g = generate::ring(24);
    let server = engine(2, &g).into_server();

    let mut alice = server.session("alice");
    let bob = server.session("bob");

    // Alice materialises a column and keeps it (no cleanup in the job).
    alice
        .submit(Lane::Interactive, 1, |e: &mut Engine, _| {
            let p = e.add_prop("alice_col", 1i64);
            e.fill(p, 7);
            Ok(())
        })
        .unwrap()
        .join()
        .unwrap();
    // So does Bob.
    let bob_probe = bob
        .submit(Lane::Interactive, 1, |e: &mut Engine, _| {
            let p = e.add_prop("bob_col", 2i64);
            e.fill(p, 9);
            Ok(p)
        })
        .unwrap()
        .join()
        .unwrap();

    alice.close();

    // Bob's column survives Alice's close; Alice's is gone.
    let (live, bob_val) = bob
        .submit(Lane::Interactive, 0, move |e: &mut Engine, _| {
            Ok((e.live_prop_ids(), e.get(bob_probe, 0)))
        })
        .unwrap()
        .join()
        .unwrap();
    assert_eq!(live, vec![bob_probe.id()], "only bob's column remains");
    assert_eq!(bob_val, 9i64);

    drop(bob);
    let engine = server.shutdown();
    assert_eq!(engine.live_prop_ids().len(), 0);
}

/// The serving counters and queue-wait histogram are populated by a
/// normal workload: three clean jobs, one cancelled mid-flight and one
/// whose deadline expired in the queue (which also counts as cancelled).
#[test]
fn serving_telemetry_is_populated() {
    let g = generate::ring(16);
    let server = Engine::builder()
        .machines(2)
        .workers(2)
        .copiers(1)
        .telemetry(TelemetryConfig::on())
        .engine(&g)
        .unwrap()
        .into_server();
    let session = server.session("t");
    for _ in 0..3 {
        session
            .submit(Lane::Interactive, 0, |_: &mut Engine, _| Ok(()))
            .unwrap()
            .join()
            .unwrap();
    }

    let (started_tx, started_rx) = mpsc::channel::<()>();
    let victim: JobHandle<()> = session
        .submit(Lane::Batch, 0, move |e: &mut Engine, cancel| {
            started_tx.send(()).unwrap();
            loop {
                e.try_run_node_job_with(&JobSpec::new(), pgxd::tasks::on_node(|_| {}), cancel)?;
            }
        })
        .unwrap();
    started_rx.recv().unwrap();
    victim.cancel();
    assert!(matches!(victim.join(), Err(JobError::Cancelled { .. })));
    let expired: JobHandle<()> = session
        .submit_with_deadline(Lane::Batch, 0, Duration::ZERO, |_: &mut Engine, _| Ok(()))
        .unwrap();
    assert!(matches!(
        expired.join(),
        Err(JobError::DeadlineExceeded { .. })
    ));

    let telemetry = std::sync::Arc::clone(server.telemetry());
    drop(session);
    server.shutdown();

    let stats = telemetry.stats().snapshot();
    assert_eq!(stats.jobs_admitted, 4, "the expired job is never admitted");
    assert_eq!(stats.jobs_rejected, 0);
    assert_eq!(stats.jobs_deadline_missed, 1);
    assert_eq!(stats.jobs_cancelled, 2, "explicit cancel + missed deadline");
    let waits = telemetry.queue_wait_snapshot();
    assert_eq!(waits.count(), 5, "every dispatch records its queue wait");
    assert!(waits.mean() > 0.0);
}

/// A job whose body panics on the driver fails alone: it joins with a
/// protocol error naming the panic, the columns it created are reclaimed,
/// and the dispatcher goes on to run the next job.
#[test]
fn panicking_job_fails_alone() {
    let g = generate::ring(32);
    let server = engine(2, &g).into_server();
    let session = server.session("careless");
    let live = || {
        let probe = |e: &mut Engine, _: &_| Ok(e.live_prop_ids().len());
        session.submit(Lane::Interactive, 0, probe).unwrap().join()
    };
    let baseline = live().unwrap();

    // Vertex 1000 is past the ring's 32, after the algorithm made its
    // columns.
    let bad = session
        .submit(Lane::Batch, 3, |e: &mut Engine, _| {
            Ok(algos::try_hopdist(e, 1000)?.hops)
        })
        .unwrap();
    match bad.join() {
        Err(JobError::Protocol(msg)) => assert!(msg.contains("panicked"), "{msg}"),
        other => panic!("expected a protocol error, got {other:?}"),
    }

    let good = session
        .submit(Lane::Batch, 3, |e: &mut Engine, _| {
            Ok(algos::try_hopdist(e, 0)?.hops)
        })
        .unwrap();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(good.join()));
    let hops = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the job after a panicking one never completed")
        .unwrap();
    assert_eq!(hops, (0..32).collect::<Vec<i64>>());
    assert_eq!(live().unwrap(), baseline, "the panicked job leaked columns");
    drop(session);
    server.shutdown();
}
