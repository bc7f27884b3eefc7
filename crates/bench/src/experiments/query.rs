//! `repro query`: the declarative front-end acceptance sweep.
//!
//! Compiles and runs the three exemplar query shapes against a served
//! TWT-S on 4 simulated machines and checks the compiler contract:
//!
//! * **optimizer decisions** — PageRank's unfiltered bare-load sum
//!   compiles to a *pull* edge job, the frontier-filtered BFS `min` to
//!   *push*; constant folding fires on `N`-dependent arithmetic;
//!   `foreach ... where` is pushed from a materialized mask into the
//!   job's filter hook; dead properties are eliminated from the plan;
//! * **golden equivalence** — query PageRank matches `try_pagerank_pull`
//!   within 1e-12, query BFS is bit-identical to `try_hopdist`, the
//!   filtered degree-sum matches the graph's degree sequence;
//! * **structured rejection** — malformed and ill-typed text surfaces a
//!   spanned `QueryError` at submission, never a panic or a running job;
//! * **cancellation** — a mid-flight cancel surfaces `Cancelled` and the
//!   executor's columns are reclaimed.

use crate::datasets::{BenchGraph, Scale};
use crate::report::Table;
use pgxd::query::{compile, plan_naive, QuerySessionExt, QuerySubmitError, TraverseMode};
use pgxd::serve::{Lane, ServeEngine};
use pgxd::{BuildEngine, Engine, JobError, TelemetryConfig};
use pgxd_algorithms as algos;
use pgxd_graph::generate::{rmat, RmatParams};
use std::time::{Duration, Instant};

/// Simulated machines serving the graph.
pub const MACHINES: usize = 4;

const DAMPING: f64 = 0.85;
const PR_ITERS: usize = 12;
const TOLERANCE: f64 = 1e-12;

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

const DEGREE_SUM: &str = "return sum(v where v.out_degree > 4) v.out_degree;";

/// Exercises pushdown and dead-property elimination in one plan.
const PUSHDOWN_DCE: &str = "\
prop a: f64 = 1.0;
prop dead: f64 = 2.0;
foreach v where v.out_degree > 0 { v.a = v.a + 1.0; }
foreach v { v.dead = v.dead * 2.0; }
return a;
";

fn served_engine(graph: &pgxd_graph::Graph) -> Engine {
    Engine::builder()
        .machines(MACHINES)
        .workers(2)
        .copiers(1)
        .telemetry(TelemetryConfig::on())
        .engine(graph)
        .expect("engine")
}

/// Runs the sweep and returns the summary table. Panics if any scenario
/// violates the compiler contract (this *is* the acceptance check).
pub fn run_experiment(scale: Scale, quick: bool) -> Vec<Table> {
    // `--quick` swaps TWT-S for a quarter-size instance of the same
    // skewed family so the sweep fits a CI smoke budget.
    let graph = if quick {
        rmat(11, 16, RmatParams::skewed(), 0xBE11_0001)
    } else {
        BenchGraph::Twt.generate(scale)
    };
    let nodes = graph.num_nodes() as u64;
    let mut t = Table::new(
        &format!(
            "Query — declarative front-end on {} vertices × {MACHINES} machines",
            graph.num_nodes()
        ),
        vec![
            "ok".into(),
            "seconds".into(),
            "measure".into(),
            "detail".into(),
        ],
        "measure: optimizer rows = folds / pushed filters / eliminated props; \
         equivalence rows = max|Δ| vs built-in; reject row = errors surfaced; \
         cancel row = live columns after reclaim",
    );

    // --- optimizer decisions -------------------------------------------
    eprintln!("[query] running 'optimizer decisions'");
    let t0 = Instant::now();
    let pr = compile(PAGERANK, nodes).expect("pagerank compiles");
    assert!(pr.report.folds > 0, "N-dependent constants must fold");
    assert!(
        pr.report
            .directions
            .iter()
            .any(|(target, mode)| target == "nxt" && *mode == TraverseMode::Pull),
        "unfiltered bare-load sum must choose pull: {:?}",
        pr.report.directions
    );
    assert!(pr.render().contains("edge-job [pull]"), "{}", pr.render());
    t.push_row(
        "optimize pagerank: folds, pull direction",
        vec![
            Some(1.0),
            Some(t0.elapsed().as_secs_f64()),
            Some(pr.report.folds as f64),
            None,
        ],
    );

    let t0 = Instant::now();
    let hop = compile(HOPDIST, nodes).expect("hopdist compiles");
    assert!(
        hop.report
            .directions
            .iter()
            .any(|(target, mode)| target == "nxt" && *mode == TraverseMode::Push),
        "neighbor-filtered min must choose push: {:?}",
        hop.report.directions
    );
    assert!(hop.render().contains("edge-job [push]"), "{}", hop.render());
    t.push_row(
        "optimize hopdist: push direction",
        vec![
            Some(1.0),
            Some(t0.elapsed().as_secs_f64()),
            Some(hop.report.directions.len() as f64),
            None,
        ],
    );

    let t0 = Instant::now();
    let opt = compile(PUSHDOWN_DCE, nodes).expect("pushdown query compiles");
    assert!(
        opt.report.pushed_filters >= 1,
        "where-clause must be pushed"
    );
    assert!(
        opt.report.eliminated.iter().any(|p| p == "dead"),
        "unused property must be eliminated: {:?}",
        opt.report.eliminated
    );
    assert!(
        !opt.render().contains("where-mask"),
        "no materialized masks may survive optimization:\n{}",
        opt.render()
    );
    // The naive plan really is worse: it materializes the mask.
    let naive = plan_naive(PUSHDOWN_DCE).expect("naive plan");
    assert!(naive.render().contains("where-mask"), "{}", naive.render());
    t.push_row(
        "optimize filters: pushdown + dead-prop elimination",
        vec![
            Some(1.0),
            Some(t0.elapsed().as_secs_f64()),
            Some((opt.report.pushed_filters + opt.report.eliminated.len()) as f64),
            None,
        ],
    );

    // --- golden equivalence --------------------------------------------
    eprintln!("[query] running 'golden baselines'");
    let t0 = Instant::now();
    let mut solo = served_engine(&graph);
    let solo_pr = algos::try_pagerank_pull(&mut solo, DAMPING, PR_ITERS, TOLERANCE)
        .expect("solo pagerank")
        .scores;
    let solo_hops = algos::try_hopdist(&mut solo, 0).expect("solo hopdist").hops;
    drop(solo);
    let solo_deg: i64 = (0..graph.num_nodes() as u32)
        .map(|v| graph.out_degree(v) as i64)
        .filter(|&d| d > 4)
        .sum();
    t.push_row(
        "built-in baselines (pagerank, hopdist, degree sum)",
        vec![Some(1.0), Some(t0.elapsed().as_secs_f64()), Some(3.0), None],
    );

    let server = served_engine(&graph).into_server();
    let session = server.session("query");

    eprintln!("[query] running 'pagerank equivalence'");
    let t0 = Instant::now();
    let (result, report) = session
        .query(PAGERANK)
        .expect("submit pagerank")
        .join_with_report();
    let result = result.expect("pagerank query runs");
    let plan = report
        .expect("report")
        .plan
        .expect("compiled query attaches its plan");
    assert!(plan.contains("edge-job [pull]"), "{plan}");
    let got = result.as_column().expect("column").1.as_f64().expect("f64");
    let mut max_delta = 0.0f64;
    for (a, b) in got.iter().zip(&solo_pr) {
        max_delta = max_delta.max((a - b).abs());
    }
    assert!(
        max_delta <= TOLERANCE,
        "pagerank query diverged: max|Δ| = {max_delta:e}"
    );
    t.push_row(
        "query pagerank == try_pagerank_pull",
        vec![
            Some(1.0),
            Some(t0.elapsed().as_secs_f64()),
            Some(max_delta),
            None,
        ],
    );

    eprintln!("[query] running 'hopdist equivalence'");
    let t0 = Instant::now();
    let result = session
        .query(HOPDIST)
        .expect("submit hopdist")
        .join()
        .expect("hopdist query runs");
    let got = result.as_column().expect("column").1.as_i64().expect("i64");
    assert_eq!(got, &solo_hops[..], "hop counts must be bit-identical");
    t.push_row(
        "query hopdist == try_hopdist (bit-identical)",
        vec![Some(1.0), Some(t0.elapsed().as_secs_f64()), Some(0.0), None],
    );

    eprintln!("[query] running 'filtered degree sum'");
    let t0 = Instant::now();
    let result = session
        .query(DEGREE_SUM)
        .expect("submit degree sum")
        .join()
        .expect("degree sum runs");
    let got = result.as_scalar().expect("scalar").as_i64();
    assert_eq!(got, solo_deg, "filtered degree sum mismatch");
    t.push_row(
        "query filtered degree-sum == degree sequence",
        vec![Some(1.0), Some(t0.elapsed().as_secs_f64()), Some(0.0), None],
    );

    // --- structured rejection ------------------------------------------
    eprintln!("[query] running 'structured rejection'");
    let t0 = Instant::now();
    let mut rejected = 0.0;
    for bad in [
        "prop x: f64 = ;",                      // parse error
        "prop x: f64 = 1.0;\nreturn missing;",  // type error
        "return sum(v) sum(u in v.in_nbrs) 1;", // unsupported nesting
    ] {
        match session.query(bad) {
            Err(QuerySubmitError::Compile(e)) => {
                assert!(e.span.line >= 1 && e.span.col >= 1, "{e}");
                rejected += 1.0;
            }
            Err(other) => panic!("expected a compile error for {bad:?}, got {other}"),
            Ok(_) => panic!("bad query was accepted: {bad:?}"),
        }
    }
    t.push_row(
        "malformed/ill-typed rejected with spanned errors",
        vec![
            Some(1.0),
            Some(t0.elapsed().as_secs_f64()),
            Some(rejected),
            None,
        ],
    );

    // --- cancellation --------------------------------------------------
    eprintln!("[query] running 'mid-flight cancel'");
    let t0 = Instant::now();
    let handle = session
        .query(
            "prop x: f64 = 1.0;\n\
             iterate max 1000000 {\n\
               foreach v { v.x = v.x * 1.000001; }\n\
               until sum(v) v.x < 0.0;\n\
             }\n\
             return x;",
        )
        .expect("submit runaway query");
    std::thread::sleep(Duration::from_millis(20));
    handle.cancel();
    match handle.join() {
        Err(JobError::Cancelled { .. }) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    let live = session
        .submit(Lane::Interactive, 0, |e: &mut Engine, _| {
            Ok(e.live_prop_ids().len())
        })
        .expect("probe")
        .join()
        .expect("probe runs");
    assert_eq!(live, 0, "cancelled query leaked columns");
    t.push_row(
        "mid-flight cancel reclaims query columns",
        vec![
            Some(1.0),
            Some(t0.elapsed().as_secs_f64()),
            Some(live as f64),
            None,
        ],
    );

    drop(session);
    server.shutdown();
    vec![t]
}
