//! Figure 6: traffic reduction and workload balance.
//!
//! * (a) ghost-threshold sweep: relative runtime and traffic of PageRank-pull
//!   on TWT as the threshold falls and the ghost count grows (paper: 4/8
//!   machines, high-skew graph);
//! * (b) edge partitioning vs vertex partitioning across machine counts;
//! * (c) execution-time breakdown (fully parallel / intra-machine idle /
//!   inter-machine idle) for the three balance configurations.

use crate::datasets::{BenchGraph, Scale};
use crate::experiments::machine_counts;
use crate::report::Table;
use crate::systems::{run_pgx, Algo};
use pgxd::{Breakdown, BuildEngine, ChunkingMode, Engine, PartitioningMode};
use pgxd_graph::Graph;

/// The Figure 6a sweep's ghost thresholds, falling: ghosting off, then
/// ever more hubs, down to every vertex with an edge (`Some(0)`, the
/// shipped default).
pub const THRESHOLDS: [Option<usize>; 6] =
    [None, Some(1024), Some(256), Some(64), Some(16), Some(0)];

/// One point of the Figure 6a sweep.
#[derive(Clone, Debug)]
pub struct GhostPoint {
    /// Ghost candidates the threshold selected.
    pub ghosts: usize,
    pub seconds: f64,
    pub traffic_bytes: u64,
    /// Remote read entries put on the wire.
    pub read_entries: u64,
}

/// Measures PageRank-pull runtime and traffic at ghost threshold
/// `threshold`.
pub fn measure_ghosts(g: &Graph, machines: usize, threshold: Option<usize>) -> GhostPoint {
    let mut engine = Engine::builder()
        .machines(machines)
        .workers(1)
        .copiers(1)
        .chunk_edges(8 * 1024)
        .ghost_threshold(threshold)
        .partitioning(PartitioningMode::Edge)
        .chunking(ChunkingMode::Edge)
        .engine(g)
        .expect("engine");
    let before = engine.cluster().total_stats();
    let r = run_pgx(&mut engine, Algo::PrPull);
    let delta = engine.cluster().total_stats() - before;
    GhostPoint {
        ghosts: engine.cluster().ghosts().len(),
        seconds: r.seconds,
        traffic_bytes: delta.bytes_sent + delta.header_bytes_sent,
        read_entries: delta.read_entries,
    }
}

/// The Figure 6a sweep: one point per threshold of [`THRESHOLDS`].
pub fn sweep_ghosts(g: &Graph, machines: usize) -> Vec<GhostPoint> {
    THRESHOLDS
        .iter()
        .map(|&t| measure_ghosts(g, machines, t))
        .collect()
}

/// Figure 6a: relative runtime and traffic vs ghost count (1.0 = no
/// ghosts).
pub fn run_fig6a(scale: Scale, machines: usize) -> Table {
    let points = sweep_ghosts(&BenchGraph::Twt.generate(scale), machines);
    let base = &points[0];
    let mut t = Table::new(
        &format!("Figure 6a — ghost node effect (PR-pull on TWT-S, {machines} machines)"),
        points
            .iter()
            .map(|p| format!("{} ghosts", p.ghosts))
            .collect(),
        "relative to no ghosts (1.0); lower is better",
    );
    t.push_row(
        "runtime",
        points
            .iter()
            .map(|p| Some(p.seconds / base.seconds))
            .collect(),
    );
    t.push_row(
        "traffic",
        points
            .iter()
            .map(|p| Some(p.traffic_bytes as f64 / base.traffic_bytes as f64))
            .collect(),
    );
    t
}

/// Builds an engine for one of Figure 6's three balance configurations.
fn balance_engine(
    g: &Graph,
    machines: usize,
    partitioning: PartitioningMode,
    chunking: ChunkingMode,
) -> Engine {
    Engine::builder()
        .machines(machines)
        .workers(2) // intra-machine balance needs >1 worker
        .copiers(1)
        .chunk_edges(4 * 1024)
        .ghost_threshold(Some(256))
        .partitioning(partitioning)
        .chunking(chunking)
        .engine(g)
        .expect("engine")
}

/// Figure 6b: edge vs vertex partitioning, PR-pull on TWT, machine sweep.
pub fn run_fig6b(scale: Scale) -> Table {
    let g = BenchGraph::Twt.generate(scale);
    let machines = machine_counts(scale);
    let mut vertex_row = Vec::new();
    let mut edge_row = Vec::new();
    for &m in &machines {
        let mut ev = balance_engine(&g, m, PartitioningMode::Vertex, ChunkingMode::Edge);
        let tv = run_pgx(&mut ev, Algo::PrPull).seconds;
        let mut ee = balance_engine(&g, m, PartitioningMode::Edge, ChunkingMode::Edge);
        let te = run_pgx(&mut ee, Algo::PrPull).seconds;
        // Relative performance: vertex partitioning at this machine count
        // is the 1.0 baseline, as in the paper's bar pairs.
        vertex_row.push(Some(1.0));
        edge_row.push(Some(tv / te));
    }
    let mut t = Table::new(
        "Figure 6b — edge vs vertex partitioning (PR-pull on TWT-S)",
        machines.iter().map(|m| format!("{m} mach")).collect(),
        "relative performance (vertex partitioning = 1.0); higher is better",
    );
    t.push_row("vertex partitioning", vertex_row);
    t.push_row("edge partitioning", edge_row);
    t
}

/// Figure 6c: breakdown of the main-phase wall time into fully-parallel /
/// intra-machine idle / inter-machine idle for the three configurations.
pub fn run_fig6c(scale: Scale, machines: usize) -> Table {
    let g = BenchGraph::Twt.generate(scale);
    let configs: [(&str, PartitioningMode, ChunkingMode); 3] = [
        (
            "vertex+node-chunk",
            PartitioningMode::Vertex,
            ChunkingMode::Node,
        ),
        (
            "+edge-partition",
            PartitioningMode::Edge,
            ChunkingMode::Node,
        ),
        ("+edge-chunking", PartitioningMode::Edge, ChunkingMode::Edge),
    ];
    let mut t = Table::new(
        &format!("Figure 6c — execution time breakdown (PR-pull on TWT-S, {machines} machines)"),
        vec![
            "fully parallel".into(),
            "intra-machine idle".into(),
            "inter-machine idle".into(),
            "drain".into(),
            "total".into(),
        ],
        "seconds of the pull job's main phases, summed over iterations",
    );
    for (label, part, chunk) in configs {
        let mut engine = balance_engine(&g, machines, part, chunk);
        let b = measure_breakdown(&mut engine);
        t.push_row(
            label,
            vec![
                Some(b.fully_parallel),
                Some(b.intra_machine),
                Some(b.inter_machine),
                Some(b.drain),
                Some(b.total()),
            ],
        );
    }
    t
}

/// Accumulates the Figure 6c breakdown over one PageRank-pull run.
pub fn measure_breakdown(engine: &mut Engine) -> Breakdown {
    use pgxd::{Dir, Fold, JobSpec, NodeCtx, NodeTask, Prop, ReduceOp};
    // A self-contained PR-pull iteration loop so each edge job's report
    // (the breakdown source) is accessible.
    struct Scale2 {
        pr: Prop<f64>,
        tmp: Prop<f64>,
    }
    impl NodeTask for Scale2 {
        fn run(&self, ctx: &mut NodeCtx<'_, '_>) {
            let d = ctx.out_degree();
            let pr = ctx.get(self.pr);
            ctx.set(self.tmp, if d > 0 { pr / d as f64 } else { 0.0 });
        }
    }
    let n = engine.num_nodes() as f64;
    let pr = engine.add_prop("b_pr", 1.0 / n);
    let tmp = engine.add_prop("b_tmp", 0.0f64);
    let nxt = engine.add_prop("b_nxt", 0.0f64);
    let pull = Fold::new(tmp, nxt, ReduceOp::Sum);
    let mut acc = Breakdown::default();
    for _ in 0..3 {
        engine
            .try_run_node_job(&JobSpec::new(), Scale2 { pr, tmp })
            .expect("scale job");
        let report = engine
            .try_run_edge_job(Dir::In, &JobSpec::new(), pull)
            .expect("pull job");
        acc.fully_parallel += report.breakdown.fully_parallel;
        acc.intra_machine += report.breakdown.intra_machine;
        acc.inter_machine += report.breakdown.inter_machine;
        acc.drain += report.breakdown.drain;
        engine.fill(nxt, 0.0f64);
    }
    engine.drop_prop(pr);
    engine.drop_prop(tmp);
    engine.drop_prop(nxt);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgxd_graph::generate;

    /// As the threshold falls the sweep selects strictly more candidates,
    /// from none with ghosting off; at `Some(0)` every in-neighbour of a
    /// pull is owned or mirrored, so no read goes on the wire.
    #[test]
    fn threshold_sweep_selects_more_as_it_falls() {
        let g = generate::rmat(11, 16, generate::RmatParams::skewed(), 17);
        let points = sweep_ghosts(&g, 2);
        assert_eq!(points[0].ghosts, 0, "None selects nothing");
        for pair in points.windows(2) {
            assert!(
                pair[0].ghosts < pair[1].ghosts,
                "{} then {}",
                pair[0].ghosts,
                pair[1].ghosts
            );
        }
        assert!(points[0].read_entries > 0);
        assert_eq!(points[THRESHOLDS.len() - 1].read_entries, 0, "Some(0)");
    }

    #[test]
    fn ghosts_reduce_traffic_on_skewed_graph() {
        let g = generate::rmat(9, 8, generate::RmatParams::skewed(), 17);
        let none = measure_ghosts(&g, 4, None);
        let some = measure_ghosts(&g, 4, Some(16));
        assert_eq!(none.ghosts, 0);
        assert!(some.ghosts > 0);
        assert!(
            some.traffic_bytes < none.traffic_bytes,
            "ghosts must cut traffic: {} vs {}",
            some.traffic_bytes,
            none.traffic_bytes
        );
    }

    #[test]
    fn breakdown_sums_to_positive_total() {
        let g = generate::rmat(8, 6, generate::RmatParams::skewed(), 18);
        let mut engine = balance_engine(&g, 2, PartitioningMode::Edge, ChunkingMode::Edge);
        let b = measure_breakdown(&mut engine);
        assert!(b.total() > 0.0);
        assert!(b.fully_parallel > 0.0);
    }
}
