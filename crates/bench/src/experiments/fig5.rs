//! Figure 5: (a) framework overhead measured as raw edge-iteration speed
//! on a single machine, varying worker threads; (b) barrier latency
//! varying the number of machines, plus what one empty job (job-start
//! barrier, one termination wave, phase barrier) costs over loopback TCP.
//! No job crosses the message-based barrier; its row is a measurement of
//! what one would cost.

use crate::datasets::{BenchGraph, Scale};
use crate::report::Table;
use pgxd::{BuildEngine, Dir, EdgeCtx, EdgeTask, Engine, JobSpec};
use pgxd_baselines::{gas, sa};
use pgxd_graph::Graph;
use std::time::Instant;

/// A task that touches every edge but does no algorithmic work — the
/// "simple algorithm that iterates over all the edges in the graph without
/// doing actual communication at all" (§5.3.1).
struct NoopScan;
impl EdgeTask for NoopScan {
    fn run(&self, ctx: &mut EdgeCtx<'_, '_>) {
        std::hint::black_box(ctx.nbr());
    }
}

/// Edge-iteration speed of PGX.D: one machine, `workers` worker threads.
/// Returns millions of edges per second.
pub fn pgx_edge_iteration_meps(g: &Graph, workers: usize) -> f64 {
    let mut engine = Engine::builder()
        .machines(1)
        .workers(workers)
        .copiers(1)
        .chunk_edges(8 * 1024)
        .ghost_threshold(None)
        .engine(g)
        .expect("engine");
    // Warm-up pass, then measured pass.
    engine
        .try_run_edge_job(Dir::Out, &JobSpec::new(), NoopScan)
        .expect("warm-up job");
    let report = engine
        .try_run_edge_job(Dir::Out, &JobSpec::new(), NoopScan)
        .expect("measured job");
    g.num_edges() as f64 / report.main.as_secs_f64() / 1e6
}

/// Edge-iteration speed of the standalone CSR loop (the OpenMP line).
pub fn sa_edge_iteration_meps(g: &Graph, threads: usize) -> f64 {
    std::hint::black_box(sa::edge_iteration(g, threads)); // warm-up
    let t0 = Instant::now();
    std::hint::black_box(sa::edge_iteration(g, threads));
    g.num_edges() as f64 / t0.elapsed().as_secs_f64() / 1e6
}

/// Edge-iteration speed of the GAS comparator (one superstep's scatter).
pub fn gas_edge_iteration_meps(g: &Graph, threads: usize) -> f64 {
    gas::edge_iteration(g, threads); // warm-up
    let t0 = Instant::now();
    gas::edge_iteration(g, threads);
    g.num_edges() as f64 / t0.elapsed().as_secs_f64() / 1e6
}

/// Figure 5a: millions of edges per second vs thread count for the three
/// systems, on the TWT stand-in (paper: Twitter, single machine).
pub fn run_fig5a(scale: Scale) -> Table {
    let g = BenchGraph::Twt.generate(scale);
    let threads = [1usize, 2, 4];
    let mut t = Table::new(
        "Figure 5a — edge iteration speed (single machine)",
        threads.iter().map(|t| format!("{t} thr")).collect(),
        "millions of edges per second; higher is better",
    );
    t.push_row(
        "OpenMP (SA)",
        threads
            .iter()
            .map(|&k| Some(sa_edge_iteration_meps(&g, k)))
            .collect(),
    );
    t.push_row(
        "PGX.D",
        threads
            .iter()
            .map(|&k| Some(pgx_edge_iteration_meps(&g, k)))
            .collect(),
    );
    t.push_row(
        "GraphLab-like",
        threads
            .iter()
            .map(|&k| Some(gas_edge_iteration_meps(&g, k)))
            .collect(),
    );
    t
}

/// Mean wall time of one empty node job, µs, on `machines` thread-hosted
/// ranks over loopback TCP ([`pgxd::loopback_ranks`]); rank 0's clock is
/// reported. An empty job is all fixed cost: the control-plane barrier at
/// job start, one termination wave (report → probe → answer → release) and
/// the local phase barrier.
pub fn tcp_empty_job_us(machines: usize, reps: u32) -> f64 {
    use pgxd::tasks::on_node;
    let config = pgxd::Config::builder()
        .machines(machines)
        .workers(1)
        .copiers(1)
        .ghost_threshold(None);
    let g = pgxd_graph::generate::ring(64);
    pgxd::loopback_ranks(machines, |rank| {
        let mut engine = rank.engine(config.clone(), &g).expect("loopback rank");
        let mut empty_job = || {
            engine
                .try_run_node_job(&JobSpec::new(), on_node(|_| {}))
                .expect("empty job")
                .total
        };
        empty_job(); // warm-up
        let total: std::time::Duration = (0..reps).map(|_| empty_job()).sum();
        // Nobody closes a socket while a peer is still inside a job.
        engine.cluster().node_barrier().expect("teardown barrier");
        total.as_secs_f64() / reps as f64 * 1e6
    })[0]
}

/// Figure 5b: barrier latency vs machine count, for both the shared-memory
/// control barrier and the message-based distributed barrier (measured
/// only: phases end on the termination wave, which needs no barrier round
/// after it), and the empty-job time of a real loopback-TCP cluster of the
/// same size.
pub fn run_fig5b() -> Table {
    let machines = [2usize, 4, 8];
    let g = pgxd_graph::generate::ring(64);
    let mut shared_row = Vec::new();
    let mut dist_row = Vec::new();
    let mut tcp_row = Vec::new();
    const REPS: u32 = 50;
    for &m in &machines {
        tcp_row.push(Some(tcp_empty_job_us(m, REPS)));
        let mut engine = Engine::builder()
            .machines(m)
            .workers(1)
            .copiers(1)
            .ghost_threshold(None)
            .engine(&g)
            .expect("engine");
        // Warm-up, then average over repetitions.
        engine.barrier_roundtrip();
        engine.dist_barrier_roundtrip();
        let mut shared = std::time::Duration::ZERO;
        for _ in 0..REPS {
            shared += engine.barrier_roundtrip();
        }
        let mut dist = std::time::Duration::ZERO;
        for _ in 0..REPS {
            dist += engine.dist_barrier_roundtrip();
        }
        shared_row.push(Some(shared.as_secs_f64() / REPS as f64 * 1e6));
        dist_row.push(Some(dist.as_secs_f64() / REPS as f64 * 1e6));
    }
    let mut t = Table::new(
        "Figure 5b — barrier execution time",
        machines.iter().map(|m| format!("{m} mach")).collect(),
        "microseconds per barrier",
    );
    t.push_row("shared-memory barrier", shared_row);
    t.push_row("message-based barrier (measurement only)", dist_row);
    t.push_row("tcp-loopback empty job", tcp_row);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgxd_graph::generate;

    #[test]
    fn edge_iteration_speeds_positive_and_ordered() {
        let g = generate::rmat(9, 8, generate::RmatParams::skewed(), 13);
        let sa = sa_edge_iteration_meps(&g, 2);
        let pgx = pgx_edge_iteration_meps(&g, 2);
        let gl = gas_edge_iteration_meps(&g, 2);
        assert!(sa > 0.0 && pgx > 0.0 && gl > 0.0);
        // Figure 5a's shape: raw CSR beats the frameworks.
        assert!(sa > gl, "SA {sa} should beat GAS {gl}");
    }

    #[test]
    fn barrier_latency_small() {
        let t = run_fig5b();
        for row in &t.cells {
            for cell in row {
                let us = cell.unwrap();
                assert!(us > 0.0 && us < 1e6, "barrier latency {us}µs");
            }
        }
    }
}
