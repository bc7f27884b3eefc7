//! The seven workloads. Each is set up from a seed, runs repetitions of a
//! fixed batch of jobs through public APIs only, and can check its own
//! outputs against the `pgxd_baselines` oracles.
//!
//! Topology rule: in-memory cluster workloads use 2 machines x 1 worker x
//! 1 copier, so the busy threads (workers, copiers, pollers) stay within
//! twice the host's two cores and the wire counters repeat exactly. All
//! other engine knobs are the validated `Config::builder()` defaults.

use crate::spec::Kind;
use pgxd::serve::{JobCtx, JobExec, JobOutcome, JobReport, JobServer, Lane, Session};
use pgxd::transport::bind_coordinator;
use pgxd::{
    CancelToken, Config, Engine, EngineBuilder, NodeId, StatsSnapshot, TelemetryConfig,
    TransportConfig,
};
use pgxd_algorithms as algos;
use pgxd_baselines::seq;
use pgxd_graph::generate::{self, RmatParams};
use pgxd_graph::Graph;
use pgxd_runtime::config::ConfigBuilder;
use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub const DAMPING: f64 = 0.85;
/// Concurrent callers in the served closed loop.
pub const SERVE_CLIENTS: usize = 4;
/// PageRank iterations of a served interactive job (short, so the mix
/// measures scheduling rather than one long job).
const SERVED_PR_ITERS: usize = 2;

/// Work per repetition. `quick` halves it (smoke runs; not comparable).
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub pr_iters: usize,
    pub local_iters: usize,
    pub bfs_calls: usize,
    pub serve_jobs: usize,
}

impl Sizes {
    pub fn new(quick: bool) -> Sizes {
        let div = if quick { 2 } else { 1 };
        Sizes {
            pr_iters: 20 / div,
            local_iters: 40 / div,
            bfs_calls: 200 / div,
            serve_jobs: 120 / div,
        }
    }
}

/// Untimed repetitions before the clock starts (caches filled, pools and
/// lazily created state in place). A served repetition is three times as
/// long as the others, so it gets one.
pub fn warmup_reps(kind: Kind, quick: bool) -> usize {
    if quick || kind == Kind::ServeMix {
        1
    } else {
        2
    }
}

// ---------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------

/// SplitMix64: the benchmark's own generator for roots and job order, so
/// the engine receives only generated inputs and never the seed.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

pub fn skew(scale: u32, seed: u64) -> Graph {
    generate::rmat(scale, 16, RmatParams::skewed(), seed)
}

/// The graph a workload runs on.
pub fn graph_for(kind: Kind, seed: u64) -> Graph {
    match kind {
        Kind::PullSkew | Kind::LocalPull | Kind::QueryPr | Kind::TcpPull => skew(16, seed),
        Kind::PushUniform => generate::uniform(1 << 16, 16 << 16, seed),
        Kind::ServeMix => skew(14, seed),
        Kind::BfsSmall => skew(12, seed),
    }
}

/// `count` traversal roots drawn from the vertices that have out-edges
/// (a root without any finishes in one level and would make the latency
/// distribution bimodal).
pub fn seeded_roots(g: &Graph, seed: u64, count: usize) -> Vec<NodeId> {
    let mut rng = SplitMix(seed ^ 0xB0F5_0000_0000_0001);
    let n = g.num_nodes() as u64;
    let mut roots = Vec::with_capacity(count);
    while roots.len() < count {
        let v = (rng.next() % n) as NodeId;
        if g.out_degree(v) > 0 {
            roots.push(v);
        }
    }
    roots
}

/// Out-edges a breadth-first traversal from `root` expands: the sum of
/// out-degrees over reached vertices.
fn bfs_edges(g: &Graph, hops: &[i64]) -> f64 {
    hops.iter()
        .enumerate()
        .filter(|(_, &h)| h != i64::MAX)
        .map(|(v, _)| g.out_degree(v as NodeId) as f64)
        .sum()
}

// ---------------------------------------------------------------------
// Engines
// ---------------------------------------------------------------------

/// The configuration every engine of the benchmark starts from.
pub fn base_config(machines: usize, workers: usize, telemetry: bool) -> ConfigBuilder {
    Config::builder()
        .machines(machines)
        .workers(workers)
        .copiers(1)
        .telemetry(if telemetry {
            TelemetryConfig::on()
        } else {
            TelemetryConfig::off()
        })
}

pub fn build_engine(
    g: &Graph,
    machines: usize,
    workers: usize,
    telemetry: bool,
) -> Result<Engine, String> {
    EngineBuilder::from_config(base_config(machines, workers, telemetry).build()?).build(g)
}

/// Threads an engine of this shape keeps busy: workers, copiers and one
/// poller per machine (recorded next to the results).
pub fn engine_threads(kind: Kind) -> (usize, usize, usize) {
    match kind {
        Kind::LocalPull => (1, 1, 1),
        _ => (2, 1, 1),
    }
}

// ---------------------------------------------------------------------
// What a repetition reports
// ---------------------------------------------------------------------

/// Times the engine attributes to the jobs of one traced repetition.
#[derive(Clone, Debug, Default)]
pub struct ExecSummary {
    pub compute_s: f64,
    pub comm_s: f64,
    pub drain_s: f64,
    pub engine_jobs: f64,
    pub barrier_ms: f64,
    /// Served jobs only: per-job scheduler queue wait and run time.
    pub queue_wait_ms: Vec<f64>,
    pub run_ms: Vec<f64>,
}

impl ExecSummary {
    fn add(&mut self, exec: &JobExec) {
        self.compute_s += exec.compute_s;
        self.comm_s += exec.comm_s;
        self.drain_s += exec.drain_s;
        self.engine_jobs += exec.engine_jobs as f64;
        self.barrier_ms += exec.phases.iter().map(|p| p.barrier_ns as f64).sum::<f64>() / 1e6;
    }
}

/// One repetition: a fixed batch of jobs.
#[derive(Debug, Default)]
pub struct Rep {
    pub wall_s: f64,
    pub jobs: u64,
    pub failed: u64,
    pub latencies_ms: Vec<f64>,
    /// Traced repetitions only: counter deltas and engine-side times.
    pub traffic: Option<StatsSnapshot>,
    pub exec: Option<ExecSummary>,
    pub reconnects: u64,
}

/// Outcome of the correctness gate.
#[derive(Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Verdict {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }
}

pub trait Workload {
    /// Runs one repetition. `traced` wraps it in the engine's job window
    /// and collects counter deltas; it is only set on engines built with
    /// telemetry on.
    fn rep(&mut self, traced: bool) -> Rep;
    /// Edges one repetition traverses (PageRank: edges x iterations; BFS:
    /// out-edges of reached vertices). Computed outside the timed reps.
    fn edges_per_rep(&self) -> f64;
    /// Runs the jobs once more, keeping their outputs, and checks them
    /// against the sequential oracles. Never called inside a timed rep.
    fn verify(&mut self) -> Verdict;
    /// Orderly teardown (joins threads, shuts servers down).
    fn finish(self: Box<Self>);
}

/// How long set-up's parts took.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub build_s: f64,
    /// TCP bootstrap share of `build_s` (zero elsewhere).
    pub bootstrap_s: f64,
}

/// Builds the engine side of a workload over an already generated graph.
pub fn build(
    kind: Kind,
    graph: Arc<Graph>,
    seed: u64,
    sizes: Sizes,
    telemetry: bool,
) -> Result<(Box<dyn Workload>, SetupTimes), String> {
    let t0 = Instant::now();
    let mut bootstrap_s = 0.0;
    let (machines, workers, _) = engine_threads(kind);
    let engine = |g: &Graph| build_engine(g, machines, workers, telemetry);
    let workload: Box<dyn Workload> = match kind {
        Kind::PullSkew | Kind::PushUniform | Kind::LocalPull => Box::new(PageRankWl {
            engine: engine(&graph)?,
            graph,
            pull: kind != Kind::PushUniform,
            iters: if kind == Kind::LocalPull {
                sizes.local_iters
            } else {
                sizes.pr_iters
            },
        }),
        Kind::BfsSmall => Box::new(BfsWl {
            engine: engine(&graph)?,
            roots: seeded_roots(&graph, seed, sizes.bfs_calls),
            graph,
            telemetry,
        }),
        Kind::QueryPr => {
            let root = seeded_roots(&graph, seed, 1)[0];
            Box::new(QueryWl {
                engine: engine(&graph)?,
                graph,
                iters: sizes.pr_iters,
                root,
            })
        }
        Kind::ServeMix => {
            let roots = seeded_roots(&graph, seed, sizes.serve_jobs / 2);
            let jobs = roots
                .into_iter()
                .flat_map(|r| [ServedJob::PageRank, ServedJob::Bfs(r)])
                .collect();
            let server = engine(&graph)?.into_server();
            let sessions = (0..SERVE_CLIENTS)
                .map(|c| server.session(&format!("client-{c}")))
                .collect();
            Box::new(ServeWl {
                sessions,
                server: Some(server),
                graph,
                jobs,
            })
        }
        Kind::TcpPull => {
            let pair = TcpPair::start(graph.clone(), telemetry, None)?;
            bootstrap_s = pair.bootstrap_s;
            Box::new(TcpWl {
                pair,
                graph,
                iters: sizes.pr_iters,
            })
        }
    };
    Ok((
        workload,
        SetupTimes {
            build_s: t0.elapsed().as_secs_f64(),
            bootstrap_s,
        },
    ))
}

/// One repetition on one engine: `jobs` runs the batch and returns each
/// job's latency and the number that failed. When `traced`, the batch runs
/// inside the engine's job window and the counter deltas are kept.
fn engine_rep(
    engine: &mut Engine,
    traced: bool,
    jobs: impl FnOnce(&mut Engine) -> (Vec<f64>, u64),
) -> Rep {
    let before = traced.then(|| engine.cluster().total_stats());
    let t0 = Instant::now();
    if traced {
        // The id only labels the window; attribution needs it non-zero.
        let ctx = JobCtx {
            job: 1,
            session: 0,
            lane: 0,
        };
        engine.begin_job_window(ctx, 0);
    }
    let (latencies_ms, failed) = jobs(engine);
    let exec = traced.then(|| {
        let mut summary = ExecSummary::default();
        if let Some(exec) = engine.end_job_window(JobOutcome::Done) {
            summary.add(&exec);
        }
        summary
    });
    Rep {
        wall_s: t0.elapsed().as_secs_f64(),
        jobs: latencies_ms.len() as u64,
        failed,
        latencies_ms,
        traffic: before.map(|b| engine.cluster().total_stats() - b),
        exec,
        reconnects: 0,
    }
}

/// Times one job: its latency in milliseconds and whether it failed.
fn timed<T, E>(job: impl FnOnce() -> Result<T, E>) -> (f64, u64) {
    let t0 = Instant::now();
    let failed = job().is_err() as u64;
    (t0.elapsed().as_secs_f64() * 1e3, failed)
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

// ---------------------------------------------------------------------
// pull_skew / push_uniform / local_pull
// ---------------------------------------------------------------------

struct PageRankWl {
    engine: Engine,
    graph: Arc<Graph>,
    pull: bool,
    iters: usize,
}

impl PageRankWl {
    fn call(engine: &mut Engine, pull: bool, iters: usize) -> Result<Vec<f64>, pgxd::JobError> {
        let run = if pull {
            algos::try_pagerank_pull
        } else {
            algos::try_pagerank_push
        };
        run(engine, DAMPING, iters, 0.0).map(|r| r.scores)
    }
}

impl Workload for PageRankWl {
    fn rep(&mut self, traced: bool) -> Rep {
        let (pull, iters) = (self.pull, self.iters);
        engine_rep(&mut self.engine, traced, |e| {
            let (ms, failed) = timed(|| Self::call(e, pull, iters));
            (vec![ms], failed)
        })
    }

    fn edges_per_rep(&self) -> f64 {
        self.graph.num_edges() as f64 * self.iters as f64
    }

    fn verify(&mut self) -> Verdict {
        let mut v = Verdict::default();
        let want = seq::pagerank(&self.graph, DAMPING, self.iters);
        match Self::call(&mut self.engine, self.pull, self.iters) {
            Ok(got) => {
                let d = max_abs_diff(&got, &want);
                v.check(d <= 1e-9, || {
                    format!("pagerank differs from oracle by {d:e}")
                });
            }
            Err(e) => v.check(false, || format!("pagerank failed: {e}")),
        }
        v
    }

    fn finish(self: Box<Self>) {}
}

// ---------------------------------------------------------------------
// bfs_small
// ---------------------------------------------------------------------

struct BfsWl {
    engine: Engine,
    graph: Arc<Graph>,
    roots: Vec<NodeId>,
    telemetry: bool,
}

impl Workload for BfsWl {
    /// Every repetition starts on a fresh engine (20 ms to build on this
    /// graph, outside the timed part). An engine gets slower with every
    /// job it has run — the 200 calls took 0.44 s at first and 0.65 s a
    /// minute later — and runs out of property ids after some 21 800
    /// calls, so on one engine a repetition's time would depend on how
    /// many came before it, and with that on the speed of the host.
    fn rep(&mut self, traced: bool) -> Rep {
        self.engine = build_engine(&self.graph, 2, 1, self.telemetry)
            .expect("the engine that was built during set-up builds again");
        let roots = &self.roots;
        engine_rep(&mut self.engine, traced, |e| {
            let mut failed = 0;
            let latencies = roots
                .iter()
                .map(|&root| {
                    let (ms, f) = timed(|| algos::try_hopdist(e, root));
                    failed += f;
                    ms
                })
                .collect();
            (latencies, failed)
        })
    }

    fn edges_per_rep(&self) -> f64 {
        self.roots
            .iter()
            .map(|&r| bfs_edges(&self.graph, &seq::bfs(&self.graph, r)))
            .sum()
    }

    fn verify(&mut self) -> Verdict {
        let mut v = Verdict::default();
        for &root in &self.roots {
            match algos::try_hopdist(&mut self.engine, root) {
                Ok(got) => v.check(got.hops == seq::bfs(&self.graph, root), || {
                    format!("hop distances from {root} differ from oracle")
                }),
                Err(e) => v.check(false, || format!("hopdist({root}) failed: {e}")),
            }
        }
        v
    }

    fn finish(self: Box<Self>) {}
}

// ---------------------------------------------------------------------
// query_pr
// ---------------------------------------------------------------------

/// PageRank as a query program: the same three jobs per iteration as
/// `try_pagerank_pull`; the `until` bound is unreachable so exactly
/// `iters` iterations run, as with the built-in at tolerance 0.
pub fn pagerank_program(iters: usize) -> String {
    format!(
        "prop rank: f64 = 1.0 / N;
prop tmp: f64 = 0.0;
prop nxt: f64 = 0.0;
prop diff: f64 = 0.0;
iterate max {iters} {{
  foreach v {{ v.tmp = v.out_degree > 0 ? v.rank / v.out_degree : 0.0; }}
  foreach v {{ v.nxt = sum(u in v.in_nbrs) u.tmp; }}
  foreach v {{ v.diff = abs((1.0 - 0.85) / N + 0.85 * v.nxt - v.rank);
              v.rank = (1.0 - 0.85) / N + 0.85 * v.nxt; }}
  until sum(v) v.diff < 0.0;
}}
return rank;
"
    )
}

/// Hop distances from `root` as a query program.
pub fn hopdist_program(root: NodeId) -> String {
    format!(
        "prop hops: i64 = INF;
prop nxt: i64 = INF;
prop frontier: bool = false;
hops[{root}] = 0;
frontier[{root}] = true;
iterate max 1000000 {{
  foreach v {{ v.nxt = min(u in v.in_nbrs where u.frontier) u.hops + 1; }}
  foreach v {{ v.frontier = v.nxt < v.hops;
              v.hops = v.nxt < v.hops ? v.nxt : v.hops;
              v.nxt = INF; }}
  until count(v where v.frontier) == 0;
}}
return hops;
"
    )
}

/// Compiles and executes `text`; any stage failing is a failed job.
pub fn run_query(engine: &mut Engine, text: &str) -> Result<pgxd_query::QueryResult, String> {
    let program =
        pgxd_query::compile(text, engine.num_nodes() as u64).map_err(|e| e.to_string())?;
    pgxd::query::execute(engine, &program, &CancelToken::never()).map_err(|e| e.to_string())
}

struct QueryWl {
    engine: Engine,
    graph: Arc<Graph>,
    iters: usize,
    root: NodeId,
}

impl Workload for QueryWl {
    /// One job: compile the PageRank text, execute the program. Exactly
    /// `pull_skew`'s work through the query layer, so the two workloads'
    /// rates divide into the query/built-in ratio. (The BFS program is
    /// checked by `verify` and priced by the `query.exec_ratio_bfs`
    /// kernel; inside the timed repetition its many near-empty phases
    /// made the run-to-run spread three times wider.)
    fn rep(&mut self, traced: bool) -> Rep {
        let text = pagerank_program(self.iters);
        engine_rep(&mut self.engine, traced, |e| {
            let (ms, failed) = timed(|| run_query(e, &text));
            (vec![ms], failed)
        })
    }

    fn edges_per_rep(&self) -> f64 {
        self.graph.num_edges() as f64 * self.iters as f64
    }

    fn verify(&mut self) -> Verdict {
        let mut v = Verdict::default();
        let e = &mut self.engine;

        let query = run_query(e, &pagerank_program(self.iters));
        let builtin = algos::try_pagerank_pull(e, DAMPING, self.iters, 0.0);
        match (&query, &builtin) {
            (Ok(q), Ok(b)) => {
                let got = q
                    .as_column()
                    .and_then(|(_, c)| c.as_f64())
                    .unwrap_or_default();
                let d = max_abs_diff(got, &b.scores);
                v.check(d <= 1e-12, || {
                    format!("query pagerank differs from built-in by {d:e}")
                });
                let d = max_abs_diff(got, &seq::pagerank(&self.graph, DAMPING, self.iters));
                v.check(d <= 1e-9, || {
                    format!("query pagerank differs from oracle by {d:e}")
                });
            }
            _ => v.check(false, || {
                format!(
                    "pagerank failed: query {:?} built-in {:?}",
                    query.as_ref().err(),
                    builtin.as_ref().err()
                )
            }),
        }

        let query = run_query(e, &hopdist_program(self.root));
        let builtin = algos::try_hopdist(e, self.root);
        match (&query, &builtin) {
            (Ok(q), Ok(b)) => {
                let got = q
                    .as_column()
                    .and_then(|(_, c)| c.as_i64())
                    .unwrap_or_default();
                v.check(got == b.hops.as_slice(), || {
                    "query hop distances differ from built-in".into()
                });
                v.check(got == seq::bfs(&self.graph, self.root).as_slice(), || {
                    "query hop distances differ from oracle".into()
                });
            }
            _ => v.check(false, || {
                format!(
                    "hopdist failed: query {:?} built-in {:?}",
                    query.as_ref().err(),
                    builtin.as_ref().err()
                )
            }),
        }
        v
    }

    fn finish(self: Box<Self>) {}
}

// ---------------------------------------------------------------------
// serve_mix
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum ServedJob {
    PageRank,
    Bfs(NodeId),
}

struct ServeWl {
    // Field order is drop order: sessions must close before the server.
    sessions: Vec<Session<Engine>>,
    server: Option<JobServer<Engine>>,
    graph: Arc<Graph>,
    jobs: Vec<ServedJob>,
}

/// What one client saw of one job.
struct Served {
    latency_ms: f64,
    failed: bool,
    report: Option<JobReport>,
}

fn serve_one(session: &Session<Engine>, job: ServedJob, traced: bool) -> Served {
    let t0 = Instant::now();
    let submitted = match job {
        ServedJob::PageRank => session.submit(Lane::Interactive, 4, |e: &mut Engine, cancel| {
            algos::try_pagerank_pull_with(e, DAMPING, SERVED_PR_ITERS, 0.0, cancel).map(|_| ())
        }),
        ServedJob::Bfs(root) => session.submit(Lane::Batch, 3, move |e: &mut Engine, _| {
            algos::try_hopdist(e, root).map(|_| ())
        }),
    };
    let (failed, report) = match submitted {
        // A refused submit (queue full, admission) is a failed operation.
        Err(_) => (true, None),
        Ok(handle) if traced => {
            let (result, report) = handle.join_with_report();
            (result.is_err(), report)
        }
        Ok(handle) => (handle.join().is_err(), None),
    };
    Served {
        latency_ms: t0.elapsed().as_secs_f64() * 1e3,
        failed,
        report,
    }
}

impl Workload for ServeWl {
    /// Closed loop: each of the clients submits its next job only after
    /// the previous one returned, so at most `SERVE_CLIENTS` jobs are
    /// outstanding. Jobs come off one seeded list in order.
    fn rep(&mut self, traced: bool) -> Rep {
        let next = AtomicUsize::new(0);
        let (jobs, next) = (&self.jobs, &next);
        let t0 = Instant::now();
        let served: Vec<Served> = std::thread::scope(|s| {
            let clients: Vec<_> = self
                .sessions
                .iter()
                .map(|session| {
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        while let Some(&job) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                            mine.push(serve_one(session, job, traced));
                        }
                        mine
                    })
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("serve client panicked"))
                .collect()
        });
        let wall_s = t0.elapsed().as_secs_f64();

        let mut rep = Rep {
            wall_s,
            jobs: served.len() as u64,
            failed: served.iter().filter(|s| s.failed).count() as u64,
            latencies_ms: served.iter().map(|s| s.latency_ms).collect(),
            ..Rep::default()
        };
        if traced {
            let mut summary = ExecSummary::default();
            let mut traffic = StatsSnapshot::default();
            for report in served.iter().filter_map(|s| s.report.as_ref()) {
                summary
                    .queue_wait_ms
                    .push(report.queue_wait.as_secs_f64() * 1e3);
                summary.run_ms.push(report.run.as_secs_f64() * 1e3);
                if let Some(exec) = &report.exec {
                    summary.add(exec);
                    traffic = traffic + exec.traffic;
                }
            }
            rep.exec = Some(summary);
            rep.traffic = Some(traffic);
        }
        rep
    }

    fn edges_per_rep(&self) -> f64 {
        self.jobs
            .iter()
            .map(|job| match job {
                ServedJob::PageRank => (self.graph.num_edges() * SERVED_PR_ITERS) as f64,
                ServedJob::Bfs(root) => bfs_edges(&self.graph, &seq::bfs(&self.graph, *root)),
            })
            .sum()
    }

    fn verify(&mut self) -> Verdict {
        let mut v = Verdict::default();
        let session = &self.sessions[0];
        let scores = session
            .submit(Lane::Interactive, 4, |e: &mut Engine, cancel| {
                algos::try_pagerank_pull_with(e, DAMPING, SERVED_PR_ITERS, 0.0, cancel)
                    .map(|r| r.scores)
            })
            .and_then(|h| h.join());
        match scores {
            Ok(got) => {
                let d = max_abs_diff(&got, &seq::pagerank(&self.graph, DAMPING, SERVED_PR_ITERS));
                v.check(d <= 1e-9, || {
                    format!("served pagerank differs from oracle by {d:e}")
                });
            }
            Err(e) => v.check(false, || format!("served pagerank failed: {e}")),
        }
        for job in &self.jobs {
            let ServedJob::Bfs(root) = *job else { continue };
            let hops = session
                .submit(Lane::Batch, 3, move |e: &mut Engine, _| {
                    algos::try_hopdist(e, root).map(|r| r.hops)
                })
                .and_then(|h| h.join());
            match hops {
                Ok(got) => v.check(got == seq::bfs(&self.graph, root), || {
                    format!("served hop distances from {root} differ from oracle")
                }),
                Err(e) => v.check(false, || format!("served hopdist({root}) failed: {e}")),
            }
        }
        v
    }

    fn finish(mut self: Box<Self>) {
        self.sessions.clear();
        if let Some(server) = self.server.take() {
            drop(server.shutdown());
        }
    }
}

// ---------------------------------------------------------------------
// tcp_pull (and the TCP kernels): two node-mode ranks on loopback
// ---------------------------------------------------------------------

type RankJob = Box<dyn FnOnce(&mut Engine) -> Box<dyn Any + Send> + Send>;

/// Two node-mode ranks of one cluster over loopback TCP, hosted on two
/// threads of this process (the `tests/tests/wire_e2e.rs` pattern): the
/// caller's thread drives rank 0, a helper thread drives rank 1 and runs
/// whatever rank 0 runs, in lockstep, as an SPMD program must.
pub struct TcpPair {
    pub rank0: Engine,
    jobs: Option<Sender<RankJob>>,
    results: Receiver<Box<dyn Any + Send>>,
    rank1: Option<JoinHandle<()>>,
    /// Rank 0's time in membership bootstrap (bind, joins, mesh, ready).
    pub bootstrap_s: f64,
}

impl TcpPair {
    /// `buffer_bytes` overrides the message buffer size (the flood kernels
    /// probe two sizes).
    pub fn start(
        graph: Arc<Graph>,
        telemetry: bool,
        buffer_bytes: Option<usize>,
    ) -> Result<TcpPair, String> {
        let config = move |coord: &str, rank: u16| {
            let mut b = base_config(2, 1, telemetry).transport(TransportConfig::tcp(coord, rank));
            if let Some(bytes) = buffer_bytes {
                b = b.buffer_bytes(bytes);
            }
            b.build()
        };
        let (addr_tx, addr_rx) = channel::<String>();
        let (ready_tx, ready_rx) = channel::<Result<(), String>>();
        let (job_tx, job_rx) = channel::<RankJob>();
        let (result_tx, result_rx) = channel::<Box<dyn Any + Send>>();

        let graph1 = graph.clone();
        let rank1 = std::thread::Builder::new()
            .name("bench-rank1".into())
            .spawn(move || {
                let built = addr_rx
                    .recv()
                    .map_err(|_| "rank 0 never published the coordinator".to_string())
                    .and_then(|coord| config(&coord, 1))
                    .and_then(|c| EngineBuilder::from_config(c).build_node(&graph1));
                let mut engine = match built {
                    Ok(engine) => {
                        let _ = ready_tx.send(Ok(()));
                        engine
                    }
                    Err(e) => {
                        let _ = ready_tx.send(Err(e));
                        return;
                    }
                };
                while let Ok(job) = job_rx.recv() {
                    if result_tx.send(job(&mut engine)).is_err() {
                        break;
                    }
                }
                // Orderly goodbye, so teardown EOFs are not read as deaths.
                let _ = engine.cluster().node_barrier();
            })
            .map_err(|e| format!("spawn rank 1: {e}"))?;

        let t0 = Instant::now();
        let (handle, addr) = bind_coordinator("127.0.0.1:0").map_err(|e| e.to_string())?;
        addr_tx
            .send(addr.to_string())
            .map_err(|_| "rank 1 exited before bootstrap".to_string())?;
        let config0 = config(&addr.to_string(), 0)?;
        let membership = handle
            .wait_cluster(2, &config0.transport.listen_addr, Duration::from_secs(30))
            .map_err(|e| e.to_string())?;
        let bootstrap_s = t0.elapsed().as_secs_f64();
        let rank0 = EngineBuilder::from_config(config0).build_node_with(&graph, membership)?;
        ready_rx
            .recv()
            .map_err(|_| "rank 1 died during set-up".to_string())??;
        Ok(TcpPair {
            rank0,
            jobs: Some(job_tx),
            results: result_rx,
            rank1: Some(rank1),
            bootstrap_s,
        })
    }

    /// Runs `f` on both ranks at once and returns (rank 0's, rank 1's)
    /// results.
    pub fn both<T: Send + 'static>(
        &mut self,
        f: impl Fn(&mut Engine) -> T + Send + Clone + 'static,
    ) -> (T, T) {
        let remote = f.clone();
        self.jobs
            .as_ref()
            .expect("pair is running")
            .send(Box::new(move |e| {
                Box::new(remote(e)) as Box<dyn Any + Send>
            }))
            .expect("rank 1 is alive");
        let mine = f(&mut self.rank0);
        let theirs = self
            .results
            .recv()
            .expect("rank 1 is alive")
            .downcast::<T>()
            .expect("rank 1 returns what rank 0 returns");
        (mine, *theirs)
    }

    /// Both ranks leave through a control barrier, then rank 1 is joined.
    pub fn stop(mut self) {
        drop(self.jobs.take());
        let _ = self.rank0.cluster().node_barrier();
        if let Some(t) = self.rank1.take() {
            t.join().expect("rank 1 panicked");
        }
    }
}

struct TcpWl {
    pair: TcpPair,
    graph: Arc<Graph>,
    iters: usize,
}

impl Workload for TcpWl {
    fn rep(&mut self, traced: bool) -> Rep {
        let iters = self.iters;
        let (r0, r1) = self.pair.both(move |e| {
            let mut rep = engine_rep(e, traced, |e| {
                let (ms, failed) = timed(|| algos::try_pagerank_pull(e, DAMPING, iters, 0.0));
                (vec![ms], failed)
            });
            rep.reconnects = e.wire_counters().map_or(0, |w| w.reconnects_dialed);
            rep
        });
        // The caller sees rank 0 return (both ranks leave each job together,
        // so rank 1's time differs only by the last barrier); counters and
        // failures are the two ranks' sums.
        Rep {
            failed: (r0.failed + r1.failed).min(1),
            traffic: r0.traffic.zip(r1.traffic).map(|(a, b)| a + b),
            reconnects: r0.reconnects + r1.reconnects,
            ..r0
        }
    }

    fn edges_per_rep(&self) -> f64 {
        self.graph.num_edges() as f64 * self.iters as f64
    }

    fn verify(&mut self) -> Verdict {
        let mut v = Verdict::default();
        let iters = self.iters;
        let (r0, r1) = self.pair.both(move |e| {
            algos::try_pagerank_pull(e, DAMPING, iters, 0.0)
                .map(|r| r.scores)
                .map_err(|e| e.to_string())
        });
        match (r0, r1) {
            (Ok(a), Ok(b)) => {
                let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                v.check(bits(&a) == bits(&b), || {
                    "the two ranks gathered different vectors".into()
                });
                let d = max_abs_diff(&a, &seq::pagerank(&self.graph, DAMPING, iters));
                v.check(d <= 1e-9, || {
                    format!("tcp pagerank differs from oracle by {d:e}")
                });
            }
            (a, b) => v.check(false, || {
                format!(
                    "tcp pagerank failed: rank0 {:?} rank1 {:?}",
                    a.err(),
                    b.err()
                )
            }),
        }
        v
    }

    fn finish(self: Box<Self>) {
        self.pair.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = graph_for(Kind::BfsSmall, 7);
        let b = graph_for(Kind::BfsSmall, 7);
        assert_eq!(a.out_csr().col_idx(), b.out_csr().col_idx());
        assert_eq!(seeded_roots(&a, 7, 50), seeded_roots(&b, 7, 50));
        assert_ne!(seeded_roots(&a, 7, 50), seeded_roots(&a, 8, 50));
        assert!(seeded_roots(&a, 7, 50).iter().all(|&r| a.out_degree(r) > 0));
    }

    /// Same seed twice gives identical count metrics on the workloads
    /// whose counters must repeat (small sizes; the property is the same).
    #[test]
    fn same_seed_twice_gives_identical_counts() {
        let sizes = Sizes {
            pr_iters: 3,
            local_iters: 3,
            bfs_calls: 4,
            serve_jobs: 4,
        };
        for (pull, graph) in [
            (true, generate::rmat(10, 16, RmatParams::skewed(), 99)),
            (false, generate::uniform(1 << 10, 16 << 10, 99)),
        ] {
            let graph = Arc::new(graph);
            let counts = || {
                let mut w = PageRankWl {
                    engine: build_engine(&graph, 2, 1, true).unwrap(),
                    graph: graph.clone(),
                    pull,
                    iters: sizes.pr_iters,
                };
                w.rep(true);
                let t = w.rep(true).traffic.unwrap();
                (
                    t.msgs_sent,
                    t.bytes_sent,
                    t.read_entries,
                    t.write_entries,
                    t.ghost_entries,
                    t.combined_read_hits,
                    t.local_reads,
                    t.local_writes,
                )
            };
            let first = counts();
            assert!(first.0 > 0, "a 2-machine run sends messages");
            assert_eq!(first, counts());
        }
    }

    #[test]
    fn small_workloads_run_and_verify() {
        let sizes = Sizes {
            pr_iters: 2,
            local_iters: 2,
            bfs_calls: 3,
            serve_jobs: 8,
        };
        for kind in Kind::ALL {
            let graph = Arc::new(match kind {
                Kind::PushUniform => generate::uniform(1 << 9, 16 << 9, 5),
                _ => skew(9, 5),
            });
            let (mut w, _) = build(kind, graph, 5, sizes, true)
                .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
            let rep = w.rep(true);
            assert_eq!(rep.failed, 0, "{}", kind.name());
            assert!(rep.jobs > 0 && rep.wall_s > 0.0, "{}", kind.name());
            assert_eq!(rep.latencies_ms.len() as u64, rep.jobs, "{}", kind.name());
            assert!(
                rep.exec.is_some() && rep.traffic.is_some(),
                "{}",
                kind.name()
            );
            assert!(w.edges_per_rep() > 0.0, "{}", kind.name());
            let verdict = w.verify();
            assert!(verdict.attempted > 0, "{}", kind.name());
            assert_eq!(verdict.failed, 0, "{}: {:?}", kind.name(), verdict.notes);
            w.finish();
        }
    }
}
