//! Worker/copier auto-tuning — the future-work item of §5.3.3
//! ("Eventually, the system will be able to auto-tune the number of
//! threads based on the algorithmic workload"), implemented as an offline
//! probe: run a representative pull kernel under each candidate
//! configuration and pick the fastest.

use crate::closure_tasks::{on_edge, on_node};
use crate::engine::{BuildEngine, Engine};
use pgxd_graph::Graph;
use pgxd_runtime::config::ConfigBuilder;
use pgxd_runtime::props::ReduceOp;
use std::time::Duration;

/// Result of an auto-tuning sweep.
#[derive(Clone, Debug)]
pub struct TuneResult {
    /// Best (workers, copiers) pair found.
    pub workers: usize,
    /// Copiers of the best pair.
    pub copiers: usize,
    /// Measured duration per candidate: `(workers, copiers, main-phase
    /// time)` — the Figure 7 grid, machine-readable.
    pub grid: Vec<(usize, usize, Duration)>,
}

/// Probes each `(workers, copiers)` candidate with a pull-pattern job on
/// `graph` (the communication-heavy workload that exposes both thread
/// pools) and returns the fastest configuration.
///
/// `base` supplies everything except thread counts; each probe builds a
/// fresh engine, so expect `candidates.len()` × engine-setup cost.
pub fn autotune_threads(
    graph: &Graph,
    base: ConfigBuilder,
    candidates: &[(usize, usize)],
    probe_iters: usize,
) -> TuneResult {
    assert!(!candidates.is_empty(), "need at least one candidate");
    let mut grid = Vec::with_capacity(candidates.len());
    for &(workers, copiers) in candidates {
        let mut engine: Engine = base
            .clone()
            .workers(workers)
            .copiers(copiers)
            .engine(graph)
            .expect("engine construction during autotune");
        let dur = probe(&mut engine, probe_iters);
        grid.push((workers, copiers, dur));
    }
    let best = grid
        .iter()
        .min_by_key(|(_, _, d)| *d)
        .expect("non-empty grid");
    TuneResult {
        workers: best.0,
        copiers: best.1,
        grid,
    }
}

/// One probe: a few iterations of a pull-sum kernel (reads stress the
/// copiers, folding their responses stresses the workers). Returns summed main-phase
/// time.
fn probe(engine: &mut Engine, iters: usize) -> Duration {
    let src = engine.add_prop("tune_src", 1.0f64);
    let dst = engine.add_prop("tune_dst", 0.0f64);
    // Warm-up job.
    run_pull_once(engine, src, dst);
    let mut total = Duration::ZERO;
    for _ in 0..iters.max(1) {
        total += run_pull_once(engine, src, dst);
        engine
            .try_run_node_job(
                &crate::spec::JobSpec::new(),
                on_node(move |ctx| ctx.set(dst, 0.0f64)),
            )
            .expect("tune reset job failed");
    }
    engine.drop_prop(src);
    engine.drop_prop(dst);
    total
}

fn run_pull_once(
    engine: &mut Engine,
    src: crate::prop::Prop<f64>,
    dst: crate::prop::Prop<f64>,
) -> Duration {
    let report = engine
        .try_run_edge_job(
            crate::task::Dir::In,
            &crate::spec::JobSpec::new().read(src),
            on_edge(move |ctx| ctx.fold_nbr(src, dst, ReduceOp::Sum)),
        )
        .expect("tune probe job failed");
    report.main
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgxd_graph::generate;

    #[test]
    fn autotune_returns_a_candidate() {
        let g = generate::rmat(8, 6, generate::RmatParams::skewed(), 3001);
        let base = Engine::builder().machines(2).ghost_threshold(Some(64));
        let candidates = [(1usize, 1usize), (2, 1)];
        let r = autotune_threads(&g, base, &candidates, 2);
        assert!(candidates.contains(&(r.workers, r.copiers)));
        assert_eq!(r.grid.len(), 2);
        for (_, _, d) in &r.grid {
            assert!(*d > Duration::ZERO);
        }
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_candidates_rejected() {
        let g = generate::ring(8);
        autotune_threads(&g, Engine::builder().machines(1), &[], 1);
    }
}
