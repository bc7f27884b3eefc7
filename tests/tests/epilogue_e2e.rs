//! An edge job ends with its node pass: `EdgeTask::epilogue` runs once per
//! worker, over its share of the machine's vertices, after the job has
//! completed, so a node job that directly follows an edge job is that
//! task's epilogue instead of a job of its own.
//!
//! * Jobs per step, by the phase labels and by a served window's
//!   `engine_jobs`: one per PageRank iteration (push and approximate), per
//!   hop-distance level, per SSSP round and per forward betweenness level;
//!   two per WCC round, per eigenvector iteration and per backward
//!   betweenness level; five per MIS round. k-core keeps its jobs. Hop
//!   distance and both PageRanks are also counted on 2 loopback ranks.
//! * Push PageRank is bit-identical to the three-job push (`Scale`, the
//!   scatter, `Apply`) written here through the public API, at 1 × 1.
//! * Hop distance matches the sequential BFS whether remote writes reach
//!   `nxt` over the wire or through ghost partials.
//! * An epilogue that reduces into another machine's vertex fails its job
//!   with a protocol error, and the engine's next job runs correctly.

use pgxd::{
    BuildEngine, Config, Dir, EdgeTask, Engine, JobError, JobSpec, NodeChunk, NodeId, NodeTask,
    Prop, ReduceOp, Reduction, Scatter, TelemetryConfig,
};
use pgxd_algorithms as algos;
use pgxd_baselines::seq;
use pgxd_graph::{generate, Graph};
use pgxd_runtime::config::ConfigBuilder;
use pgxd_runtime::jobctx::{JobCtx, JobOutcome};

const DAMPING: f64 = 0.85;
const ITERS: usize = 6;

fn graph() -> Graph {
    generate::rmat(8, 6, generate::RmatParams::skewed(), 0x44)
}

fn traced() -> ConfigBuilder {
    Config::builder()
        .machines(2)
        .workers(2)
        .telemetry(TelemetryConfig::on())
}

/// Runs `f` inside a served job's attribution window; returns its result
/// and the jobs it ran, asserting that the phase labels it added agree
/// with the window's `engine_jobs`.
fn counted<T>(e: &mut Engine, f: impl FnOnce(&mut Engine) -> T) -> (T, u64) {
    let labels = e.cluster().phase_labels().len();
    let ctx = JobCtx {
        job: 1,
        session: 1,
        lane: 0,
    };
    e.begin_job_window(ctx, 0);
    let out = f(e);
    let exec = e.end_job_window(JobOutcome::Done).expect("window open");
    let added = (e.cluster().phase_labels().len() - labels) as u64;
    assert_eq!(added, exec.engine_jobs, "phase labels against engine_jobs");
    (out, exec.engine_jobs)
}

fn push(e: &mut Engine) -> usize {
    algos::try_pagerank_push(e, DAMPING, ITERS, 0.0)
        .unwrap()
        .iterations
}

fn pull(e: &mut Engine) -> usize {
    algos::try_pagerank_pull(e, DAMPING, ITERS, 0.0)
        .unwrap()
        .iterations
}

fn hops(e: &mut Engine) -> usize {
    algos::try_hopdist(e, 0).unwrap().iterations
}

#[test]
fn each_step_runs_the_pinned_number_of_jobs() {
    let g = graph();
    let mut e = traced().engine(&g).unwrap();

    let (iters, jobs) = counted(&mut e, push);
    assert_eq!((iters, jobs), (ITERS, ITERS as u64), "PageRank push");
    let (iters, jobs) = counted(&mut e, pull);
    assert_eq!((iters, jobs), (ITERS, ITERS as u64 + 1), "PageRank pull");
    let (r, jobs) = counted(&mut e, |e| {
        algos::try_pagerank_approx(e, DAMPING, 1e-7, 100).unwrap()
    });
    assert!(r.iterations > 1 && r.iterations < 100, "{}", r.iterations);
    assert_eq!(jobs, r.iterations as u64, "approximate PageRank");
    let (levels, jobs) = counted(&mut e, hops);
    assert!(levels > 2, "{levels}");
    assert_eq!(jobs, levels as u64, "hop distance");
    let (r, jobs) = counted(&mut e, |e| algos::try_wcc(e).unwrap());
    assert!(r.iterations > 1, "{}", r.iterations);
    assert_eq!(jobs, 2 * r.iterations as u64, "WCC");
    let (r, jobs) = counted(&mut e, |e| algos::try_sssp(e, 0).unwrap());
    assert!(r.iterations > 2, "{}", r.iterations);
    assert_eq!(jobs, r.iterations as u64, "SSSP");
    let (r, jobs) = counted(&mut e, |e| algos::try_eigenvector(e, ITERS, 0.0).unwrap());
    assert_eq!(r.iterations, ITERS);
    assert_eq!(jobs, 2 * ITERS as u64, "eigenvector");
    let (r, jobs) = counted(&mut e, |e| algos::try_mis(e).unwrap());
    assert!(r.rounds > 1, "{}", r.rounds);
    assert_eq!(jobs, 5 * r.rounds as u64, "MIS");
    // k-core: `InitDegree`, then per peel `MarkDying` and, while anything
    // dies, both notifies; its `iterations` counts exactly those jobs.
    let (r, jobs) = counted(&mut e, |e| algos::try_kcore(e, 64).unwrap());
    assert_eq!(jobs, r.iterations as u64, "k-core");
}

/// On the path 0 → 1 → 2 → 3 → 4 from source 0 the forward sweep runs
/// five levels (the fifth finds nothing) and the backward sweep four.
#[test]
fn betweenness_runs_one_job_per_forward_and_two_per_backward_level() {
    let g = generate::path(5);
    let mut e = traced().engine(&g).unwrap();
    let (r, jobs) = counted(&mut e, |e| algos::try_betweenness(e, &[0]).unwrap());
    let (forward, backward) = (5, 4);
    assert_eq!(r.levels, forward + backward);
    assert_eq!(jobs, 1 + forward as u64 + 2 * backward as u64);
}

#[test]
fn loopback_ranks_run_the_same_jobs() {
    let g = graph();
    let mut e = traced().engine(&g).unwrap();
    let want = [
        counted(&mut e, push),
        counted(&mut e, pull),
        counted(&mut e, hops),
    ];
    assert_eq!(want[0], (ITERS, ITERS as u64));
    assert_eq!(want[1], (ITERS, ITERS as u64 + 1));
    assert_eq!(want[2].1, want[2].0 as u64);
    let ranks = pgxd::loopback_ranks(2, |rank| {
        let mut e = rank.engine(traced(), &g).unwrap();
        let got = [
            counted(&mut e, push),
            counted(&mut e, pull),
            counted(&mut e, hops),
        ];
        e.cluster().node_barrier().unwrap();
        got
    });
    for (rank, got) in ranks.into_iter().enumerate() {
        assert_eq!(got, want, "loopback rank {rank}");
    }
}

struct Scale {
    pr: Prop<f64>,
    tmp: Prop<f64>,
}
impl NodeTask for Scale {
    fn run_chunk(&self, chunk: &mut NodeChunk<'_, '_>) {
        let (pr, tmp) = (chunk.col(self.pr), chunk.col(self.tmp));
        for v in chunk.nodes() {
            let d = chunk.out_degree(v);
            let scaled = pr.get(v) / d as f64;
            tmp.set(v, if d > 0 { scaled } else { 0.0 });
        }
    }
}

struct Apply {
    pr: Prop<f64>,
    nxt: Prop<f64>,
    diff: Prop<f64>,
    base: f64,
}
impl NodeTask for Apply {
    fn run_chunk(&self, chunk: &mut NodeChunk<'_, '_>) {
        let (pr, nxt, diff) = (
            chunk.col(self.pr),
            chunk.col(self.nxt),
            chunk.col(self.diff),
        );
        for v in chunk.nodes() {
            let old = pr.get(v);
            let new = self.base + DAMPING * nxt.get(v);
            pr.set(v, new);
            nxt.set(v, 0.0);
            diff.set(v, (new - old).abs());
        }
    }
}

/// The three-job push: `Scale`, the scatter, `Apply`, then the convergence
/// reduction, every iteration. Returns the score bits.
fn three_job_push(e: &mut Engine, iters: usize) -> Vec<u64> {
    let n = e.num_nodes();
    let pr = e.add_prop("pr", 1.0 / n as f64);
    let tmp = e.add_prop("pr_tmp", 0.0f64);
    let nxt = e.add_prop("pr_nxt", 0.0f64);
    let diff = e.add_prop("pr_diff", 0.0f64);
    let base = (1.0 - DAMPING) / n as f64;
    for _ in 0..iters {
        e.try_run_node_job(&JobSpec::new(), Scale { pr, tmp })
            .unwrap();
        let push = Scatter::new(tmp, nxt, ReduceOp::Sum);
        e.try_run_edge_job(Dir::Out, &JobSpec::new(), push).unwrap();
        let apply = Apply {
            pr,
            nxt,
            diff,
            base,
        };
        e.try_run_node_job(&JobSpec::new(), apply).unwrap();
        e.reduce(diff, ReduceOp::Sum);
    }
    let scores = e.gather(pr);
    for p in [pr, tmp, nxt, diff] {
        e.drop_prop(p);
    }
    scores.iter().map(|s| s.to_bits()).collect()
}

#[test]
fn fused_push_matches_the_three_job_push_to_the_bit() {
    let g = graph();
    let one = || Config::builder().machines(1).workers(1);
    let want = three_job_push(&mut one().engine(&g).unwrap(), ITERS);
    let mut e = one().engine(&g).unwrap();
    let got = algos::try_pagerank_push(&mut e, DAMPING, ITERS, 0.0).unwrap();
    let got: Vec<u64> = got.scores.iter().map(|s| s.to_bits()).collect();
    assert_eq!(got, want);
}

/// Without mirrors every remote out-neighbor's `Min` arrives as a write
/// entry applied by a copier; with every neighbor a mirror it arrives as a
/// ghost partial. Either way the epilogue reads a final `nxt`.
#[test]
fn hop_epilogue_sees_remote_writes_and_ghost_partials() {
    let g = generate::rmat(9, 4, generate::RmatParams::skewed(), 0x45);
    let want = seq::bfs(&g, 0);
    for threshold in [None, Some(0)] {
        let config = Config::builder()
            .machines(3)
            .workers(2)
            .ghost_threshold(threshold);
        let mut e = config.engine(&g).unwrap();
        let got = algos::try_hopdist(&mut e, 0).unwrap().hops;
        let stats = e.cluster().total_stats();
        match threshold {
            None => assert!(stats.write_entries > 0, "no remote write"),
            _ => assert!(stats.ghost_entries > 0, "no ghost partial"),
        }
        assert_eq!(got, want, "ghost_threshold({threshold:?})");
    }
}

/// Scatters nothing (its filter passes no vertex); its epilogue reduces
/// into the first and the last vertex, one of which another machine owns.
struct SendingEpilogue {
    p: Prop<i64>,
    last: NodeId,
}
impl EdgeTask for SendingEpilogue {
    fn filter(&self, _ctx: &mut pgxd::NodeCtx<'_, '_>) -> bool {
        false
    }
    fn reduction(&self) -> Option<Reduction> {
        Some(Scatter::new(self.p, self.p, ReduceOp::Sum).into())
    }
    fn epilogue(&self, chunk: &mut NodeChunk<'_, '_>) {
        if let Some(v) = chunk.nodes().next() {
            let mut ctx = chunk.ctx(v);
            ctx.reduce_global(0, self.p, ReduceOp::Sum, 1);
            ctx.reduce_global(self.last, self.p, ReduceOp::Sum, 1);
        }
    }
}

#[test]
fn an_epilogue_that_sends_fails_its_job() {
    let g = graph();
    let n = g.num_nodes();
    let mut e = Config::builder().machines(2).workers(2).engine(&g).unwrap();
    let p = e.add_prop("p", 0i64);
    let task = SendingEpilogue {
        p,
        last: n as NodeId - 1,
    };
    let err = e
        .try_run_edge_job(Dir::Out, &JobSpec::new(), task)
        .unwrap_err();
    let JobError::Protocol(msg) = err else {
        panic!("expected a protocol error, got {err:?}");
    };
    assert!(msg.contains("epilogue sent an entry"), "{msg}");
    assert!(
        msg.contains("machine ") && msg.contains(" worker "),
        "{msg}"
    );
    e.drop_prop(p);

    let got = algos::try_hopdist(&mut e, 0).unwrap().hops;
    assert_eq!(got, seq::bfs(&g, 0), "the next job");
}
