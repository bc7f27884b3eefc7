//! PageRank: the paper's running example (§5.2), in all three variants.

use pgxd::recover::{ResumableAlgorithm, StepOutcome};
use pgxd::{
    CancelToken, Dir, EdgeTask, Engine, Fold, JobError, JobSpec, NodeChunk, NodeCtx, NodeTask,
    Prop, ReduceOp, Reduction, Scatter,
};

/// Result of a PageRank computation.
#[derive(Clone, Debug)]
pub struct PageRankResult {
    /// Scores indexed by global vertex id; sums to ~1.
    pub scores: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
}

/// `pr / out_degree`, or 0 for a vertex without out-edges: the local
/// pre-scaling both exact variants use so the communicated value is a
/// single f64. The quotient is taken on every vertex and then picked, so
/// a loop over it has no branch on the degree.
fn scaled(pr: f64, out_degree: usize) -> f64 {
    let q = pr / out_degree as f64;
    if out_degree > 0 {
        q
    } else {
        0.0
    }
}

/// `n.tmp = n.pr / n.out_degree()`: the pull's priming job, and the
/// push's prologue.
struct Scale {
    pr: Prop<f64>,
    tmp: Prop<f64>,
}
impl NodeTask for Scale {
    fn run_chunk(&self, chunk: &mut NodeChunk<'_, '_>) {
        let (pr, tmp) = (chunk.col(self.pr), chunk.col(self.tmp));
        for v in chunk.nodes() {
            tmp.set(v, scaled(pr.get(v), chunk.out_degree(v)));
        }
    }
}

/// `n.pr = (1-d)/N + d * n.pr_nxt; n.pr_nxt = 0`, accumulating the global
/// score delta for convergence. With `next`, also the next iteration's
/// [`Scale`] of the new score into it, as the pull does.
struct Apply {
    pr: Prop<f64>,
    nxt: Prop<f64>,
    diff: Prop<f64>,
    next: Option<Prop<f64>>,
    base: f64,
    damping: f64,
}
impl NodeTask for Apply {
    fn run_chunk(&self, chunk: &mut NodeChunk<'_, '_>) {
        let (pr, nxt, diff) = (
            chunk.col(self.pr),
            chunk.col(self.nxt),
            chunk.col(self.diff),
        );
        let next = self.next.map(|p| chunk.col(p));
        for v in chunk.nodes() {
            let old = pr.get(v);
            let new = self.base + self.damping * nxt.get(v);
            pr.set(v, new);
            nxt.set(v, 0.0);
            diff.set(v, (new - old).abs());
            if let Some(next) = &next {
                next.set(v, scaled(new, chunk.out_degree(v)));
            }
        }
    }
}

/// One exact iteration as one edge job. The pull folds the in-neighbors'
/// `tmp` into `nxt`; the push scales `tmp` in each chunk's prologue and
/// scatters it into the out-neighbors' `nxt`. Either way [`Apply`] is the
/// job's epilogue, and the pull's also scales the new scores into `tmp`
/// for the next iteration, as no edge reads `tmp` once the job is complete.
struct Iteration {
    pull: bool,
    tmp: Prop<f64>,
    apply: Apply,
}
impl EdgeTask for Iteration {
    fn prepare(&self, chunk: &mut NodeChunk<'_, '_>) {
        if !self.pull {
            let (pr, tmp) = (self.apply.pr, self.tmp);
            Scale { pr, tmp }.run_chunk(chunk);
        }
    }
    fn reduction(&self) -> Option<Reduction> {
        let (tmp, nxt) = (self.tmp, self.apply.nxt);
        Some(if self.pull {
            Fold::new(tmp, nxt, ReduceOp::Sum).into()
        } else {
            Scatter::new(tmp, nxt, ReduceOp::Sum).into()
        })
    }
    fn epilogue(&self, chunk: &mut NodeChunk<'_, '_>) {
        self.apply.run_chunk(chunk);
    }
}

/// Exact PageRank decomposed into driver-visible iterations: the one body
/// behind [`try_pagerank_pull`] / [`try_pagerank_push`] (driven by
/// [`ResumableAlgorithm::run_to_completion`]) and the form the recovery
/// driver checkpoints between and restarts mid-job
/// (`RecoveryDriver::new(&graph, config)?.run(&mut ResumablePageRank::pull(..))`).
pub struct ResumablePageRank {
    pull: bool,
    damping: f64,
    max_iters: usize,
    tol: f64,
    cancel: CancelToken,
    iterations: usize,
    props: Option<PrProps>,
}

#[derive(Clone, Copy)]
struct PrProps {
    pr: Prop<f64>,
    tmp: Prop<f64>,
    nxt: Prop<f64>,
    diff: Prop<f64>,
}

impl ResumablePageRank {
    /// The *data pulling* pattern (in-neighbor reads).
    pub fn pull(damping: f64, max_iters: usize, tol: f64) -> Self {
        Self::new(true, damping, max_iters, tol)
    }

    /// The *data pushing* pattern (out-neighbor writes).
    pub fn push(damping: f64, max_iters: usize, tol: f64) -> Self {
        Self::new(false, damping, max_iters, tol)
    }

    fn new(pull: bool, damping: f64, max_iters: usize, tol: f64) -> Self {
        ResumablePageRank {
            pull,
            damping,
            max_iters,
            tol,
            cancel: CancelToken::never(),
            iterations: 0,
            props: None,
        }
    }

    /// Every job of every step polls `cancel`: a fired token stops the
    /// iteration within one chunk.
    pub fn cancel(mut self, cancel: &CancelToken) -> Self {
        self.cancel = cancel.clone();
        self
    }
}

impl ResumableAlgorithm for ResumablePageRank {
    type Output = PageRankResult;

    fn setup(&mut self, engine: &mut Engine) {
        let n = engine.num_nodes();
        let pr = engine.add_prop("pr", 1.0 / n as f64);
        let tmp = engine.add_prop("pr_tmp", 0.0f64);
        let nxt = engine.add_prop("pr_nxt", 0.0f64);
        let diff = engine.add_prop("pr_diff", 0.0f64);
        self.props = Some(PrProps { pr, tmp, nxt, diff });
        self.iterations = 0;
    }

    fn step(&mut self, engine: &mut Engine, iteration: u64) -> Result<StepOutcome, JobError> {
        if iteration >= self.max_iters as u64 {
            return Ok(StepOutcome::Done);
        }
        let PrProps { pr, tmp, nxt, diff } = self.props.expect("setup ran");
        let cancel = &self.cancel;
        let pull = self.pull;
        if pull && iteration == 0 {
            engine.try_run_node_job_with(&JobSpec::new(), Scale { pr, tmp }, cancel)?;
        }
        // Pull: `foreach(t: n.inNbrs) n.pr_nxt += t.tmp` — the variant
        // "expensive or even disallowed in distributed frameworks" that
        // PGX.D supports natively. No atomics: all in-edges of `n` run on
        // one worker, so the sum stays in a register until `n`'s last edge.
        // Push: `foreach(t: n.outNbrs) t.pr_nxt += n.tmp` — the
        // conventional form, which pays atomic accumulation at local
        // targets; `tmp` is loaded once per vertex.
        let step = Iteration {
            pull,
            tmp,
            apply: Apply {
                pr,
                nxt,
                diff,
                next: pull.then_some(tmp),
                base: (1.0 - self.damping) / engine.num_nodes() as f64,
                damping: self.damping,
            },
        };
        let dir = if pull { Dir::In } else { Dir::Out };
        engine.try_run_edge_job_with(dir, &JobSpec::new(), step, cancel)?;
        self.iterations = iteration as usize + 1;
        // Sequential region: convergence check (driver side).
        if engine.reduce(diff, ReduceOp::Sum) < self.tol {
            return Ok(StepOutcome::Done);
        }
        Ok(StepOutcome::Continue)
    }

    fn scalars(&self) -> Vec<u64> {
        vec![self.iterations as u64]
    }

    fn restore_scalars(&mut self, scalars: &[u64]) {
        self.iterations = scalars[0] as usize;
    }

    fn finish(&mut self, engine: &mut Engine) -> PageRankResult {
        let PrProps { pr, tmp, nxt, diff } = self.props.take().expect("setup ran");
        let scores = engine.gather(pr);
        engine.drop_prop(pr);
        engine.drop_prop(tmp);
        engine.drop_prop(nxt);
        engine.drop_prop(diff);
        PageRankResult {
            scores,
            iterations: self.iterations,
        }
    }
}

/// Exact PageRank with the *data pulling* pattern (in-neighbor reads).
/// Returns `Err` instead of panicking when the cluster aborts mid-job
/// (machine crash, retry exhaustion) — a failed run is an expected
/// outcome under the chaos experiments.
pub fn try_pagerank_pull(
    engine: &mut Engine,
    damping: f64,
    max_iters: usize,
    tol: f64,
) -> Result<PageRankResult, JobError> {
    ResumablePageRank::pull(damping, max_iters, tol).run_to_completion(engine)
}

/// [`try_pagerank_pull`] with a cancellation token: a fired token stops
/// the iteration within one chunk and surfaces `JobError::Cancelled` /
/// `JobError::DeadlineExceeded`; scratch properties are released either
/// way.
pub fn try_pagerank_pull_with(
    engine: &mut Engine,
    damping: f64,
    max_iters: usize,
    tol: f64,
    cancel: &CancelToken,
) -> Result<PageRankResult, JobError> {
    ResumablePageRank::pull(damping, max_iters, tol)
        .cancel(cancel)
        .run_to_completion(engine)
}

/// Exact PageRank with the *data pushing* pattern (out-neighbor writes).
/// Returns `Err` instead of panicking when the cluster aborts mid-job
/// (machine crash, retry exhaustion).
pub fn try_pagerank_push(
    engine: &mut Engine,
    damping: f64,
    max_iters: usize,
    tol: f64,
) -> Result<PageRankResult, JobError> {
    ResumablePageRank::push(damping, max_iters, tol).run_to_completion(engine)
}

/// [`try_pagerank_push`] with a cancellation token (see
/// [`try_pagerank_pull_with`]).
pub fn try_pagerank_push_with(
    engine: &mut Engine,
    damping: f64,
    max_iters: usize,
    tol: f64,
    cancel: &CancelToken,
) -> Result<PageRankResult, JobError> {
    ResumablePageRank::push(damping, max_iters, tol)
        .cancel(cancel)
        .run_to_completion(engine)
}

/// One iteration of the approximate variant: only *active* vertices
/// propagate, and a vertex deactivates once its delta falls under the
/// threshold (§5.2: "this method performs a decreasing amount of
/// computation and communication as the iteration continues"). The
/// chunk's prologue divides each delta by its vertex's out-degree into
/// `share`, which the active vertices scatter; the job's epilogue applies
/// what arrived.
struct DeltaPush {
    pr: Prop<f64>,
    delta: Prop<f64>,
    share: Prop<f64>,
    nxt: Prop<f64>,
    active: Prop<bool>,
    damping: f64,
    threshold: f64,
}
impl EdgeTask for DeltaPush {
    fn prepare(&self, chunk: &mut NodeChunk<'_, '_>) {
        let (delta, share) = (chunk.col(self.delta), chunk.col(self.share));
        for v in chunk.nodes() {
            // A vertex without out-edges pushes nothing, whatever its share.
            share.set(v, delta.get(v) / chunk.out_degree(v) as f64);
        }
    }
    fn filter(&self, ctx: &mut NodeCtx<'_, '_>) -> bool {
        ctx.get(self.active)
    }
    fn reduction(&self) -> Option<Reduction> {
        Some(Scatter::new(self.share, self.nxt, ReduceOp::Sum).into())
    }
    fn epilogue(&self, chunk: &mut NodeChunk<'_, '_>) {
        let (pr, delta) = (chunk.col(self.pr), chunk.col(self.delta));
        let (nxt, active) = (chunk.col(self.nxt), chunk.col(self.active));
        for v in chunk.nodes() {
            let nd = self.damping * nxt.get(v);
            nxt.set(v, 0.0);
            pr.set(v, pr.get(v) + nd);
            delta.set(v, nd);
            active.set(v, nd >= self.threshold);
        }
    }
}

/// Approximate PageRank with delta propagation and vertex deactivation —
/// the variant GraphLab and GraphX ship ("PageRank: Approx" in Table 2).
/// Runs until every vertex is deactivated or `max_iters` is hit. Returns
/// `Err` instead of panicking when the cluster aborts mid-job (machine
/// crash, retry exhaustion).
pub fn try_pagerank_approx(
    engine: &mut Engine,
    damping: f64,
    threshold: f64,
    max_iters: usize,
) -> Result<PageRankResult, JobError> {
    let n = engine.num_nodes();
    let init = (1.0 - damping) / n as f64;
    let pr = engine.add_prop("apr", init);
    let delta = engine.add_prop("apr_delta", init);
    let share = engine.add_prop("apr_share", 0.0f64);
    let nxt = engine.add_prop("apr_nxt", 0.0f64);
    let active = engine.add_prop("apr_active", true);

    let run = |engine: &mut Engine, iterations: &mut usize| -> Result<(), JobError> {
        for _ in 0..max_iters {
            *iterations += 1;
            let push = DeltaPush {
                pr,
                delta,
                share,
                nxt,
                active,
                damping,
                threshold,
            };
            engine.try_run_edge_job(Dir::Out, &JobSpec::new(), push)?;
            if engine.count_true(active) == 0 {
                break;
            }
        }
        Ok(())
    };
    let mut iterations = 0;
    let outcome = run(engine, &mut iterations);

    // Always release the scratch properties, even on a failed job.
    let scores = engine.gather(pr);
    engine.drop_prop(pr);
    engine.drop_prop(delta);
    engine.drop_prop(share);
    engine.drop_prop(nxt);
    engine.drop_prop(active);
    outcome?;
    Ok(PageRankResult { scores, iterations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgxd::BuildEngine;
    use pgxd_graph::generate;

    fn engine(machines: usize, g: &pgxd_graph::Graph) -> Engine {
        Engine::builder().machines(machines).engine(g).unwrap()
    }

    #[test]
    fn pull_matches_reference_on_ring() {
        // On a ring every node has the same score: 1/n.
        let g = generate::ring(32);
        let mut e = engine(2, &g);
        let r = try_pagerank_pull(&mut e, 0.85, 50, 1e-12).unwrap();
        for &s in &r.scores {
            assert!((s - 1.0 / 32.0).abs() < 1e-9, "score {s}");
        }
    }

    #[test]
    fn pull_and_push_agree() {
        let g = generate::rmat(8, 6, generate::RmatParams::skewed(), 21);
        let mut e1 = engine(3, &g);
        let r_pull = try_pagerank_pull(&mut e1, 0.85, 30, 0.0).unwrap();
        let mut e2 = engine(3, &g);
        let r_push = try_pagerank_push(&mut e2, 0.85, 30, 0.0).unwrap();
        assert_eq!(r_pull.scores.len(), r_push.scores.len());
        for (a, b) in r_pull.scores.iter().zip(&r_push.scores) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn distributed_matches_single_machine() {
        let g = generate::rmat(8, 6, generate::RmatParams::skewed(), 22);
        let mut e1 = engine(1, &g);
        let single = try_pagerank_pull(&mut e1, 0.85, 20, 0.0).unwrap();
        let mut e4 = engine(4, &g);
        let multi = try_pagerank_pull(&mut e4, 0.85, 20, 0.0).unwrap();
        for (a, b) in single.scores.iter().zip(&multi.scores) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn ghosts_do_not_change_result() {
        let g = generate::rmat(8, 8, generate::RmatParams::skewed(), 23);
        let mut plain = Engine::builder()
            .machines(3)
            .ghost_threshold(None)
            .engine(&g)
            .unwrap();
        let mut ghosted = Engine::builder()
            .machines(3)
            .ghost_threshold(Some(16))
            .engine(&g)
            .unwrap();
        assert!(!ghosted.cluster().ghosts().is_empty(), "test needs ghosts");
        let a = try_pagerank_push(&mut plain, 0.85, 10, 0.0).unwrap();
        let b = try_pagerank_push(&mut ghosted, 0.85, 10, 0.0).unwrap();
        for (x, y) in a.scores.iter().zip(&b.scores) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn scores_sum_to_one() {
        let g = generate::rmat(9, 4, generate::RmatParams::mild(), 24);
        let mut e = engine(2, &g);
        let r = try_pagerank_pull(&mut e, 0.85, 40, 1e-10).unwrap();
        let sum: f64 = r.scores.iter().sum();
        // Dangling nodes leak mass in the simple formulation; allow slack.
        assert!(sum > 0.5 && sum <= 1.0 + 1e-6, "sum {sum}");
    }

    #[test]
    fn approx_close_to_exact_and_terminates() {
        let g = generate::rmat(8, 6, generate::RmatParams::skewed(), 25);
        let mut e1 = engine(2, &g);
        let exact = try_pagerank_pull(&mut e1, 0.85, 100, 1e-12).unwrap();
        let mut e2 = engine(2, &g);
        let approx = try_pagerank_approx(&mut e2, 0.85, 1e-9, 200).unwrap();
        assert!(approx.iterations < 200, "approx must deactivate everything");
        let mut exact_rank: Vec<usize> = (0..exact.scores.len()).collect();
        exact_rank.sort_by(|&a, &b| exact.scores[b].total_cmp(&exact.scores[a]));
        let mut approx_rank: Vec<usize> = (0..approx.scores.len()).collect();
        approx_rank.sort_by(|&a, &b| approx.scores[b].total_cmp(&approx.scores[a]));
        // Top vertex must agree; values must be close.
        assert_eq!(exact_rank[0], approx_rank[0]);
        for (a, b) in exact.scores.iter().zip(&approx.scores) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    /// A step that fails must not leave the algorithm's columns behind:
    /// the caller keeps the engine (`run_to_completion` runs `finish` on
    /// the error path too).
    #[test]
    fn failed_step_releases_columns() {
        let g = generate::ring(16);
        let mut e = engine(2, &g);
        let live = |e: &Engine| e.cluster().machine(0).props.live().len();
        let before = live(&e);
        let mut failing = pgxd::recover::Scripted::new(
            ResumablePageRank::pull(0.85, 10, 0.0),
            |_attempt, iteration| match iteration {
                2 => Err(JobError::Protocol("scripted".into())),
                _ => Ok(()),
            },
        );
        let err = failing.run_to_completion(&mut e).unwrap_err();
        assert!(matches!(err, JobError::Protocol(_)), "{err:?}");
        assert_eq!(live(&e), before, "a failed run leaked its columns");
    }

    #[test]
    fn convergence_stops_early() {
        let g = generate::ring(16);
        let mut e = engine(2, &g);
        let r = try_pagerank_pull(&mut e, 0.85, 1000, 1e-9).unwrap();
        assert!(r.iterations < 1000);
    }
}
