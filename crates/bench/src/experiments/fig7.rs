//! Figure 7: exploration of worker/copier thread counts.
//!
//! The paper's heatmap (16 machines, workers × copiers up to 32 HT) showed
//! best performance at 16–20 workers / 8–16 copiers and degradation when
//! either pool is starved. The simulation sweeps a scaled grid on fewer
//! machines; the shape to verify is that the corner configurations
//! (1 worker or starving copiers under heavy read load) lose.

use crate::datasets::{BenchGraph, Scale};
use crate::report::Table;
use crate::systems::{run_pgx, Algo};
use pgxd::{BuildEngine, ChunkingMode, Engine, PartitioningMode};
use pgxd_graph::Graph;

/// Measures PR-pull with one worker/copier configuration.
pub fn measure(g: &Graph, machines: usize, workers: usize, copiers: usize) -> f64 {
    let mut engine = Engine::builder()
        .machines(machines)
        .workers(workers)
        .copiers(copiers)
        .chunk_edges(4 * 1024)
        .ghost_threshold(Some(256))
        .partitioning(PartitioningMode::Edge)
        .chunking(ChunkingMode::Edge)
        .engine(g)
        .expect("engine");
    run_pgx(&mut engine, Algo::PrPull).seconds
}

/// Figure 7: the workers × copiers grid, reported as relative performance
/// (best configuration = 1.0).
pub fn run_experiment(scale: Scale, machines: usize) -> Table {
    let g = BenchGraph::Twt.generate(scale);
    let workers = [1usize, 2, 4];
    let copiers = [1usize, 2, 4];
    let mut raw = vec![vec![0.0f64; copiers.len()]; workers.len()];
    let mut best = f64::INFINITY;
    for (wi, &w) in workers.iter().enumerate() {
        for (ci, &c) in copiers.iter().enumerate() {
            let s = measure(&g, machines, w, c);
            raw[wi][ci] = s;
            best = best.min(s);
        }
    }
    let mut t = Table::new(
        &format!("Figure 7 — worker/copier exploration (PR-pull on TWT-S, {machines} machines)"),
        copiers.iter().map(|c| format!("{c} copiers")).collect(),
        "relative performance (best = 1.0); higher is better",
    );
    for (wi, &w) in workers.iter().enumerate() {
        t.push_row(
            &format!("{w} workers"),
            raw[wi].iter().map(|&s| Some(best / s)).collect(),
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgxd_graph::generate;

    #[test]
    fn grid_measures_all_cells() {
        let g = generate::rmat(7, 4, generate::RmatParams::skewed(), 19);
        let s = measure(&g, 2, 1, 1);
        assert!(s > 0.0);
        let s2 = measure(&g, 2, 2, 2);
        assert!(s2 > 0.0);
    }
}
