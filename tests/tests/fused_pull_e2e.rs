//! PageRank-pull runs one engine job per iteration: the declared fold,
//! whose epilogue applies the new scores and scales them into the `tmp`
//! column the next iteration reads. One `Scale` primes the first.
//!
//! * N iterations are N + 1 jobs, in memory and on loopback TCP ranks, by
//!   the phase labels and by a served window's `engine_jobs`; push is one
//!   job per iteration.
//! * The scores are bit-identical to the three-job pull (`Scale`, the
//!   fold, `Apply`), written here through the public API, whether the
//!   folds read mirrors or, at `ghost_threshold(None)`, remote answers.
//! * A recovered run that restarts at an odd iteration reaches the
//!   fault-free bits.

use pgxd::recover::Scripted;
use pgxd::{
    BuildEngine, Config, Dir, Engine, Fold, JobError, JobSpec, NodeChunk, NodeTask, Prop,
    RecoveryDriver, ReduceOp, TelemetryConfig,
};
use pgxd_algorithms::{try_pagerank_pull, try_pagerank_push, ResumablePageRank};
use pgxd_graph::{generate, Graph};
use pgxd_runtime::config::ConfigBuilder;
use pgxd_runtime::jobctx::{JobCtx, JobOutcome};
use std::cell::Cell;

const DAMPING: f64 = 0.85;
const ITERS: usize = 7;

fn graph() -> Graph {
    generate::rmat(9, 6, generate::RmatParams::skewed(), 0x43)
}

fn shape(machines: usize, workers: usize) -> ConfigBuilder {
    Config::builder().machines(machines).workers(workers)
}

fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
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

/// The three-job pull: `Scale`, the fold, `Apply`, then the convergence
/// reduction, every iteration. Returns the score bits.
fn three_job_pull(e: &mut Engine, iters: usize) -> Vec<u64> {
    let n = e.num_nodes();
    let pr = e.add_prop("pr", 1.0 / n as f64);
    let tmp = e.add_prop("pr_tmp", 0.0f64);
    let nxt = e.add_prop("pr_nxt", 0.0f64);
    let diff = e.add_prop("pr_diff", 0.0f64);
    let base = (1.0 - DAMPING) / n as f64;
    for _ in 0..iters {
        e.try_run_node_job(&JobSpec::new(), Scale { pr, tmp })
            .unwrap();
        let pull = Fold::new(tmp, nxt, ReduceOp::Sum);
        e.try_run_edge_job(Dir::In, &JobSpec::new(), pull).unwrap();
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
    bits(&scores)
}

fn fused_pull(e: &mut Engine, iters: usize) -> Vec<u64> {
    bits(&try_pagerank_pull(e, DAMPING, iters, 0.0).unwrap().scores)
}

/// Runs `f` inside a served job's attribution window on a traced engine;
/// returns its result, the phase labels it added and the window's
/// `engine_jobs`.
fn counted<T>(e: &mut Engine, f: impl FnOnce(&mut Engine) -> T) -> (T, usize, u64) {
    let labels = e.cluster().phase_labels().len();
    let ctx = JobCtx {
        job: 1,
        session: 1,
        lane: 0,
    };
    e.begin_job_window(ctx, 0);
    let out = f(e);
    let exec = e.end_job_window(JobOutcome::Done).expect("window open");
    let added = e.cluster().phase_labels().len() - labels;
    (out, added, exec.engine_jobs)
}

#[test]
fn an_iteration_is_one_job() {
    let g = graph();
    let traced = || shape(2, 2).telemetry(TelemetryConfig::on());
    let mut e = traced().engine(&g).unwrap();
    let (_, labels, jobs) = counted(&mut e, |e| fused_pull(e, ITERS));
    assert_eq!((labels, jobs), (ITERS + 1, ITERS as u64 + 1), "pull");
    let (_, labels, jobs) = counted(&mut e, |e| {
        try_pagerank_push(e, DAMPING, ITERS, 0.0).unwrap();
    });
    assert_eq!((labels, jobs), (ITERS, ITERS as u64), "push");

    let ranks = pgxd::loopback_ranks(2, |rank| {
        let mut e = rank.engine(traced(), &g).unwrap();
        let out = counted(&mut e, |e| fused_pull(e, ITERS));
        e.cluster().node_barrier().unwrap();
        out
    });
    for (rank, (_, labels, jobs)) in ranks.into_iter().enumerate() {
        assert_eq!(
            (labels, jobs),
            (ITERS + 1, ITERS as u64 + 1),
            "loopback rank {rank}"
        );
    }
}

#[test]
fn fused_pull_matches_the_three_job_pull_to_the_bit() {
    let g = graph();
    for (machines, workers) in [(1, 1), (2, 2), (3, 2)] {
        let want = three_job_pull(&mut shape(machines, workers).engine(&g).unwrap(), ITERS);
        let got = fused_pull(&mut shape(machines, workers).engine(&g).unwrap(), ITERS);
        assert_eq!(got, want, "{machines} machines x {workers} workers");
    }

    let want = three_job_pull(&mut shape(2, 1).engine(&g).unwrap(), ITERS);
    let ranks = pgxd::loopback_ranks(2, |rank| {
        let mut e = rank.engine(shape(2, 1), &g).unwrap();
        let got = fused_pull(&mut e, ITERS);
        e.cluster().node_barrier().unwrap();
        got
    });
    for (rank, got) in ranks.into_iter().enumerate() {
        assert_eq!(got, want, "loopback rank {rank}");
    }
}

/// Without mirrors a chunk's fold reads its remote in-neighbours over the
/// wire, and the epilogue runs once their answers have folded.
#[test]
fn deferred_epilogues_match_the_three_job_pull_to_the_bit() {
    let g = graph();
    let remote = || shape(2, 2).ghost_threshold(None);
    let want = three_job_pull(&mut remote().engine(&g).unwrap(), ITERS);
    let mut e = remote().engine(&g).unwrap();
    let got = fused_pull(&mut e, ITERS);
    assert!(e.cluster().total_stats().read_entries > 0, "no remote read");
    assert_eq!(got, want);
}

/// The run dies before iteration 3 and restores the checkpoint taken after
/// iteration 2 onto the surviving machine, so it resumes reading a `tmp`
/// column that only the checkpoint can have filled.
#[test]
fn recovery_at_an_odd_iteration_reaches_the_fault_free_bits() {
    let g = graph();
    let config = shape(2, 2).checkpoint_every(1).max_retries(2);
    let want = fused_pull(&mut config.clone().engine(&g).unwrap(), ITERS);
    let resumed_at = Cell::new(None);
    let mut algo = Scripted::new(
        ResumablePageRank::pull(DAMPING, ITERS, 0.0),
        |attempt, iteration| {
            if attempt == 2 && resumed_at.get().is_none() {
                resumed_at.set(Some(iteration));
            }
            if (attempt, iteration) == (1, 3) {
                return Err(JobError::MachineDown { machine: 1 });
            }
            Ok(())
        },
    );
    let rec = RecoveryDriver::new(&g, config.build().unwrap())
        .unwrap()
        .run(&mut algo)
        .unwrap();
    assert_eq!((rec.attempts, rec.recoveries, rec.machines), (2, 1, 1));
    assert_eq!(resumed_at.get(), Some(3), "resumed at an odd iteration");
    assert_eq!(rec.output.iterations, ITERS);
    assert_eq!(bits(&rec.output.scores), want);
}
