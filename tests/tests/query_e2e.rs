//! Declarative-query end-to-end tests: compiled queries must be
//! *observationally equivalent* to the hand-written algorithms they
//! compile to, and must flow through the serving stack (admission, lanes,
//! deadlines, cancellation) like any other job.
//!
//! The golden baseline is the TWT-S quick instance (the same skewed RMAT
//! `pgxd-bench` serves) on a 4-machine cluster. The PageRank query runs the
//! built-in's arithmetic in the built-in's jobs, so its scores are
//! bit-identical to `try_pagerank_pull`'s at every shape, in memory and on
//! loopback TCP ranks, and after a recovery; integer results are
//! bit-identical too.

use pgxd::query::{compile, execute, QuerySessionExt, QuerySubmitError, RecoverableQuery};
use pgxd::recover::Scripted;
use pgxd::serve::{Lane, ServeEngine};
use pgxd::{BuildEngine, CancelToken, Config, Engine, JobError, RecoveryDriver, TelemetryConfig};
use pgxd_algorithms as algos;
use pgxd_graph::generate::{self, rmat, RmatParams};
use std::cell::Cell;
use std::time::Duration;

/// The TWT-S quick instance from the benchmark catalog (8192 vertices,
/// strongly skewed).
fn twt_s() -> pgxd_graph::Graph {
    rmat(13, 16, RmatParams::skewed(), 0xBE11_0001)
}

fn engine(machines: usize, g: &pgxd_graph::Graph) -> Engine {
    Engine::builder()
        .machines(machines)
        .workers(2)
        .copiers(1)
        .engine(g)
        .unwrap()
}

const PAGERANK: &str = "\
prop rank: f64 = 1.0 / N;
prop tmp: f64 = 0.0;
prop nxt: f64 = 0.0;
prop diff: f64 = 0.0;
iterate max 12 {
  foreach v { v.tmp = v.out_degree > 0 ? v.rank / v.out_degree : 0.0; }
  foreach v { v.nxt = sum(u in v.in_nbrs) u.tmp; }
  foreach v { v.diff = abs((1.0 - 0.85) / N + 0.85 * v.nxt - v.rank);
              v.rank = (1.0 - 0.85) / N + 0.85 * v.nxt; }
  until sum(v) v.diff < 1e-12;
}
return rank;
";

const HOPDIST: &str = "\
prop hops: i64 = INF;
prop nxt: i64 = INF;
prop frontier: bool = false;
hops[0] = 0;
frontier[0] = true;
iterate max 10000 {
  foreach v { v.nxt = min(u in v.in_nbrs where u.frontier) u.hops + 1; }
  foreach v { v.frontier = v.nxt < v.hops;
              v.hops = v.nxt < v.hops ? v.nxt : v.hops;
              v.nxt = INF; }
  until count(v where v.frontier) == 0;
}
return hops;
";

fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// PageRank written as a query matches `try_pagerank_pull` to the bit, and
/// the optimizer's pull decision shows up in the job report's plan.
#[test]
fn pagerank_query_matches_builtin() {
    let g = twt_s();

    let mut golden = engine(4, &g);
    let want = algos::try_pagerank_pull(&mut golden, 0.85, 12, 1e-12)
        .unwrap()
        .scores;
    drop(golden);

    let server = engine(4, &g).into_server();
    let session = server.session("pr");
    let handle = session.query(PAGERANK).unwrap();
    let (result, report) = handle.join_with_report();
    let result = result.unwrap();

    let plan = report
        .expect("completed query must carry a report")
        .plan
        .expect("compiled query must attach its plan");
    assert!(
        plan.contains("edge-job [pull]"),
        "unfiltered bare-load sum must compile to pull:\n{plan}"
    );

    let (name, col) = result.as_column().unwrap();
    assert_eq!(name, "rank");
    assert_eq!(bits(col.as_f64().unwrap()), bits(&want));

    drop(session);
    server.shutdown();
}

/// The query's scores, bit for bit, on engines of every shape: the update
/// and the next contribution run in the fold's epilogue as `Apply` and
/// `Scale` do, with the same arithmetic, so no shape reorders a sum.
#[test]
fn pagerank_query_is_bit_identical_to_the_builtin_at_every_shape() {
    const ITERS: usize = 7;
    let g = generate::rmat(9, 6, RmatParams::skewed(), 0x43);
    let n = g.num_nodes() as u64;
    let text = PAGERANK.replace("max 12", &format!("max {ITERS}"));
    let program = compile(&text, n).unwrap();
    let shape = |machines, workers| Config::builder().machines(machines).workers(workers);
    let query = |e: &mut Engine| {
        let result = execute(e, &program, &CancelToken::never()).unwrap();
        bits(result.as_column().unwrap().1.as_f64().unwrap())
    };
    let builtin = |e: &mut Engine| {
        bits(
            &algos::try_pagerank_pull(e, 0.85, ITERS, 1e-12)
                .unwrap()
                .scores,
        )
    };
    for (machines, workers) in [(1, 1), (2, 2), (3, 2)] {
        let want = builtin(&mut shape(machines, workers).engine(&g).unwrap());
        let got = query(&mut shape(machines, workers).engine(&g).unwrap());
        assert_eq!(got, want, "{machines} machines x {workers} workers");
    }

    let want = builtin(&mut shape(2, 1).engine(&g).unwrap());
    let ranks = pgxd::loopback_ranks(2, |rank| {
        let mut e = rank.engine(shape(2, 1), &g).unwrap();
        let got = query(&mut e);
        e.cluster().node_barrier().unwrap();
        got
    });
    for (rank, got) in ranks.into_iter().enumerate() {
        assert_eq!(got, want, "loopback rank {rank}");
    }
}

/// The rotated loop under the recovery driver: the run dies before pass 3
/// and resumes there from the checkpoint taken after pass 2, which holds
/// the `tmp` column that pass 2's epilogue filled for pass 3. It reaches
/// the fault-free bits.
#[test]
fn rotated_query_recovers_at_an_odd_pass_to_the_fault_free_bits() {
    const ITERS: usize = 7;
    let g = generate::rmat(9, 6, RmatParams::skewed(), 0x43);
    let n = g.num_nodes() as u64;
    let text = PAGERANK.replace("max 12", &format!("max {ITERS}"));
    let config = Config::builder()
        .machines(2)
        .workers(2)
        .checkpoint_every(1)
        .max_retries(2);
    let program = compile(&text, n).unwrap();
    assert_eq!(program.report.rotated, 1, "{}", program.render());
    let mut e = config.clone().engine(&g).unwrap();
    let want = execute(&mut e, &program, &CancelToken::never()).unwrap();

    let resumed_at = Cell::new(None);
    let mut algo = Scripted::new(RecoverableQuery::new(program), |attempt, iteration| {
        if attempt == 2 && resumed_at.get().is_none() {
            resumed_at.set(Some(iteration));
        }
        if (attempt, iteration) == (1, 3) {
            return Err(JobError::MachineDown { machine: 1 });
        }
        Ok(())
    });
    let rec = RecoveryDriver::new(&g, config.build().unwrap())
        .unwrap()
        .run(&mut algo)
        .unwrap();
    assert_eq!((rec.attempts, rec.recoveries, rec.machines), (2, 1, 1));
    assert_eq!(resumed_at.get(), Some(3), "resumed at an odd pass");
    let got = rec.output.unwrap();
    let col = |r: &pgxd::query::QueryResult| bits(r.as_column().unwrap().1.as_f64().unwrap());
    assert_eq!(col(&got), col(&want));
}

/// BFS hop distances written as a query are bit-identical to
/// `try_hopdist`, and the frontier filter forces the push strategy.
#[test]
fn hopdist_query_matches_builtin() {
    let g = twt_s();

    let mut golden = engine(4, &g);
    let want = algos::try_hopdist(&mut golden, 0).unwrap().hops;
    drop(golden);

    let server = engine(4, &g).into_server();
    let session = server.session("bfs");
    let (result, report) = session.query(HOPDIST).unwrap().join_with_report();
    let result = result.unwrap();

    let plan = report.unwrap().plan.unwrap();
    assert!(
        plan.contains("edge-job [push]"),
        "neighbor-filtered min must compile to push:\n{plan}"
    );

    let (name, col) = result.as_column().unwrap();
    assert_eq!(name, "hops");
    assert_eq!(
        col.as_i64().unwrap(),
        &want[..],
        "hop counts must be bit-identical"
    );

    drop(session);
    server.shutdown();
}

/// The query runs the built-ins' jobs and traffic: its BFS is a declared
/// scatter that puts as many write entries on the wire and makes as many
/// local writes as `try_hopdist`'s, and one loop pass is one job in both:
/// BFS's advance is the scatter's epilogue, and PageRank's update and
/// next contribution are the pull fold's (the loop is rotated, so the
/// first contribution runs once before it, as `try_pagerank_pull`'s
/// priming `Scale` does). Ghosts are off, so the scatter's remote writes
/// are on the wire.
#[test]
fn query_jobs_and_traffic_match_the_builtins() {
    let g = twt_s();
    let n = g.num_nodes() as u64;
    let traced = || {
        Engine::builder()
            .machines(4)
            .workers(2)
            .copiers(1)
            .ghost_threshold(None)
            .telemetry(TelemetryConfig { enabled: true })
            .engine(&g)
            .unwrap()
    };
    let never = CancelToken::never();

    let mut golden = traced();
    let levels = algos::try_hopdist(&mut golden, 0).unwrap().iterations;
    let want = golden.cluster().total_stats();
    let bfs = compile(HOPDIST, n).unwrap();
    // One scratch column, `$val` for `u.hops + 1`: the filter is a column.
    assert_eq!(bfs.live_props(), 4, "{}", bfs.render());
    let mut e = traced();
    execute(&mut e, &bfs, &never).unwrap();
    let got = e.cluster().total_stats();
    assert!(want.write_entries > 0 && want.local_writes > 0);
    assert_eq!(got.write_entries, want.write_entries);
    assert_eq!(got.local_writes, want.local_writes);
    assert_eq!(e.cluster().phase_labels().len(), levels);

    let pagerank_labels = |passes: u32| {
        let text = PAGERANK.replace("max 12", &format!("max {passes}"));
        let mut e = traced();
        execute(&mut e, &compile(&text, n).unwrap(), &never).unwrap();
        e.cluster().phase_labels().len()
    };
    assert_eq!(pagerank_labels(2) - pagerank_labels(1), 1);
    let mut golden = traced();
    algos::try_pagerank_pull(&mut golden, 0.85, 3, 1e-12).unwrap();
    assert_eq!(pagerank_labels(3), golden.cluster().phase_labels().len());
}

/// A filtered global aggregate matches the same sum computed from the
/// graph's degree sequence.
#[test]
fn filtered_degree_sum_matches_graph() {
    let g = twt_s();
    let want: i64 = (0..g.num_nodes() as u32)
        .map(|v| g.out_degree(v) as i64)
        .filter(|&d| d > 4)
        .sum();

    let server = engine(4, &g).into_server();
    let session = server.session("deg");
    let result = session
        .query("return sum(v where v.out_degree > 4) v.out_degree;")
        .unwrap()
        .join()
        .unwrap();
    assert_eq!(result.as_scalar().unwrap().as_i64(), want);

    drop(session);
    server.shutdown();
}

/// `foreach v where <pred> { v.x = <aggregate> }` assigns only where the
/// predicate holds: the `=` reset to the reduction identity is part of the
/// filtered pass, not a fill of the whole column before it.
fn filtered_in_sum(g: &pgxd_graph::Graph) -> Vec<i64> {
    let text = "prop x: i64 = 7; prop y: i64 = 1; \
                foreach v where v.out_degree > 5 { v.x = sum(u in v.in_nbrs) u.y; } return x;";
    let program = compile(text, g.num_nodes() as u64).unwrap();
    let plan = program.render();
    assert!(plan.contains("edge-job [pull]"), "{plan}");
    assert!(plan.contains("where (v.out_degree > 5)"), "{plan}");
    let result = execute(&mut engine(2, g), &program, &CancelToken::never()).unwrap();
    result.as_column().unwrap().1.as_i64().unwrap().to_vec()
}

#[test]
fn filtered_aggregate_keeps_the_vertices_its_where_excludes() {
    // No ring vertex has out-degree > 5: nothing is assigned.
    assert_eq!(filtered_in_sum(&generate::ring(16)), vec![7i64; 16]);
}

#[test]
fn filtered_aggregate_assigns_the_vertices_its_where_matches() {
    // Only the hub of an 8-spoke star has out-degree > 5; its eight
    // in-neighbors carry y = 1 each. The spokes keep their 7.
    let mut want = vec![7i64; 9];
    want[0] = 8;
    assert_eq!(filtered_in_sum(&generate::star(8)), want);
}

/// Cancelling a query mid-iteration surfaces `JobError::Cancelled` and
/// every column the executor created is reclaimed — a later job sees a
/// clean property table.
#[test]
fn mid_flight_cancel_frees_query_columns() {
    let g = generate::ring(256);
    let server = engine(2, &g).into_server();
    let session = server.session("victim");

    // A convergence test that never fires keeps the loop spinning until
    // the token does.
    let handle = session
        .query(
            "prop x: f64 = 1.0;\n\
             iterate max 100000 {\n\
               foreach v { v.x = v.x * 1.000001; }\n\
               until sum(v) v.x < 0.0;\n\
             }\n\
             return x;",
        )
        .unwrap();
    let job_id = handle.id();
    std::thread::sleep(Duration::from_millis(20));
    handle.cancel();
    match handle.join() {
        Err(JobError::Cancelled { job }) => assert_eq!(job, job_id),
        other => panic!("expected Cancelled, got {other:?}"),
    }

    let probe = session
        .submit(Lane::Interactive, 0, |e: &mut Engine, _| {
            Ok(e.live_prop_ids().len())
        })
        .unwrap();
    assert_eq!(probe.join().unwrap(), 0, "cancelled query leaked columns");

    drop(session);
    server.shutdown();
}

/// Deadlines cover compiled queries exactly like hand-written jobs.
#[test]
fn query_deadline_surfaces_structured_error() {
    let g = generate::ring(256);
    let server = engine(2, &g).into_server();
    let session = server.session("deadline");

    let handle = session
        .query_on(
            Lane::Batch,
            Some(Duration::from_millis(25)),
            "prop x: f64 = 1.0;\n\
             iterate max 100000 {\n\
               foreach v { v.x = v.x * 1.000001; }\n\
               until sum(v) v.x < 0.0;\n\
             }\n\
             return x;",
        )
        .unwrap();
    match handle.join() {
        Err(JobError::DeadlineExceeded { .. }) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    let probe = session
        .submit(Lane::Interactive, 0, |e: &mut Engine, _| {
            Ok(e.live_prop_ids().len())
        })
        .unwrap();
    assert_eq!(probe.join().unwrap(), 0, "expired query leaked columns");

    drop(session);
    server.shutdown();
}

/// Malformed and ill-typed query text is rejected at submission with the
/// front end's spanned error — nothing reaches the dispatcher.
#[test]
fn bad_queries_are_rejected_before_submission() {
    let g = generate::ring(16);
    let server = engine(2, &g).into_server();
    let session = server.session("bad");

    match session.query("prop x: f64 = ;") {
        Err(QuerySubmitError::Compile(e)) => {
            assert!(e.to_string().contains("1:15"), "{e}");
        }
        Err(other) => panic!("expected Compile error, got {other}"),
        Ok(_) => panic!("malformed query was accepted"),
    }

    match session.query("prop x: f64 = 0.0;\nreturn missing;") {
        Err(QuerySubmitError::Compile(e)) => {
            assert_eq!(e.kind, pgxd::query::ErrorKind::Type);
        }
        Err(other) => panic!("expected Compile(Type) error, got {other}"),
        Ok(_) => panic!("ill-typed query was accepted"),
    }

    // An aggregate that reads the column it is reducing into has no
    // arrival-order independent meaning; the error names the column.
    match session.query("prop x: i64 = 1;\nforeach v { v.x = sum(u in v.in_nbrs) u.x; }\nreturn x;")
    {
        Err(QuerySubmitError::Compile(e)) => {
            assert_eq!(e.kind, pgxd::query::ErrorKind::Unsupported);
            assert!(
                e.to_string().contains("2:39") && e.to_string().contains("`x`"),
                "{e}"
            );
        }
        Err(other) => panic!("expected Compile(Unsupported) error, got {other}"),
        Ok(_) => panic!("an aggregate reading its own target was accepted"),
    }

    // A neighbor aggregate nested inside a global one has no plan shape.
    match session.query("return sum(v) sum(u in v.in_nbrs) 1;") {
        Err(QuerySubmitError::Compile(e)) => {
            assert!(e.span.line >= 1 && e.span.col >= 1, "{e}");
        }
        Err(other) => panic!("expected Compile error, got {other}"),
        Ok(_) => panic!("a nested aggregate was accepted"),
    }

    drop(session);
    server.shutdown();
}
