//! Betweenness centrality (Brandes' algorithm, exact or source-sampled) —
//! a second beyond-the-paper algorithm, chosen because it composes *both*
//! communication patterns per source: a push-based forward BFS computing
//! shortest-path counts, then a **pull**-based backward dependency
//! accumulation, level by level. On push-only frameworks the backward pass
//! must be restructured by hand; on PGX.D it is written naturally (§2,
//! §4.1).

use pgxd::{
    Dir, EdgeTask, Engine, Fold, JobError, JobSpec, NodeChunk, NodeCtx, NodeId, NodeTask, Prop,
    ReduceOp, Reduction, Scatter,
};

/// Result of betweenness centrality.
#[derive(Clone, Debug)]
pub struct BetweennessResult {
    /// Accumulated centrality per vertex (unnormalized, directed paths).
    pub centrality: Vec<f64>,
    /// Sources processed.
    pub sources: usize,
    /// Total BFS levels swept across all sources (forward + backward).
    pub levels: usize,
}

const UNSET: i64 = i64::MAX;

/// Forward expansion: frontier vertices mark out-neighbors reached and add
/// their path counts; the epilogue settles newly reached vertices at
/// `level + 1`.
struct Expand {
    dist: Prop<i64>,
    sigma: Prop<f64>,
    sigma_add: Prop<f64>,
    frontier_count: Prop<i64>,
    level: i64,
}
impl EdgeTask for Expand {
    fn filter(&self, ctx: &mut NodeCtx<'_, '_>) -> bool {
        ctx.get(self.dist) == self.level
    }
    fn reduction(&self) -> Option<Reduction> {
        Some(Scatter::new(self.sigma, self.sigma_add, ReduceOp::Sum).into())
    }
    fn epilogue(&self, chunk: &mut NodeChunk<'_, '_>) {
        let (dist, sigma) = (chunk.col(self.dist), chunk.col(self.sigma));
        let (sigma_add, count) = (chunk.col(self.sigma_add), chunk.col(self.frontier_count));
        for v in chunk.nodes() {
            let add = sigma_add.get(v);
            let reached = add > 0.0 && dist.get(v) == UNSET;
            if reached {
                dist.set(v, self.level + 1);
                sigma.set(v, add);
            }
            sigma_add.set(v, 0.0);
            count.set(v, i64::from(reached));
        }
    }
}

/// Backward pass, step 1: vertices at `level + 1` publish their dependency
/// coefficient `(1 + delta) / sigma`; everyone else publishes 0.
struct PublishCoef {
    dist: Prop<i64>,
    sigma: Prop<f64>,
    delta: Prop<f64>,
    coef: Prop<f64>,
    level: i64,
}
impl NodeTask for PublishCoef {
    fn run(&self, ctx: &mut NodeCtx<'_, '_>) {
        let sigma = ctx.get(self.sigma);
        let c = if ctx.get(self.dist) == self.level + 1 && sigma > 0.0 {
            (1.0 + ctx.get(self.delta)) / sigma
        } else {
            0.0
        };
        ctx.set(self.coef, c);
    }
}

/// Backward pass, step 2: vertices at `level` *pull* coefficients from
/// their out-neighbors (the successors on shortest paths) and accumulate.
/// Non-successors publish `+0.0`, and `acc` starts at `+0.0` and only
/// gains non-negative terms, so folding their zeros changes no bit. The
/// epilogue folds the pulled sum into delta and the global centrality.
struct PullCoef {
    dist: Prop<i64>,
    sigma: Prop<f64>,
    delta: Prop<f64>,
    coef: Prop<f64>,
    acc: Prop<f64>,
    bc: Prop<f64>,
    level: i64,
    source: NodeId,
}
impl EdgeTask for PullCoef {
    fn filter(&self, ctx: &mut NodeCtx<'_, '_>) -> bool {
        ctx.get(self.dist) == self.level
    }
    fn reduction(&self) -> Option<Reduction> {
        Some(Fold::new(self.coef, self.acc, ReduceOp::Sum).into())
    }
    fn epilogue(&self, chunk: &mut NodeChunk<'_, '_>) {
        let (dist, sigma, delta) = (
            chunk.col(self.dist),
            chunk.col(self.sigma),
            chunk.col(self.delta),
        );
        let (acc, bc) = (chunk.col(self.acc), chunk.col(self.bc));
        for v in chunk.nodes() {
            if dist.get(v) == self.level {
                let d = sigma.get(v) * acc.get(v);
                delta.set(v, d);
                if chunk.ctx(v).node() != self.source {
                    bc.set(v, bc.get(v) + d);
                }
            }
            acc.set(v, 0.0);
        }
    }
}

/// Resets per-source state.
struct ResetSource {
    dist: Prop<i64>,
    sigma: Prop<f64>,
    delta: Prop<f64>,
    source: NodeId,
}
impl NodeTask for ResetSource {
    fn run(&self, ctx: &mut NodeCtx<'_, '_>) {
        let is_src = ctx.node() == self.source;
        ctx.set(self.dist, if is_src { 0 } else { UNSET });
        ctx.set(self.sigma, if is_src { 1.0 } else { 0.0 });
        ctx.set(self.delta, 0.0f64);
    }
}

/// Computes (unnormalized, directed) betweenness centrality accumulated
/// over the given `sources` — pass all vertices for the exact value, a
/// sample for the approximation. Returns `Err` instead of panicking when
/// the cluster aborts mid-job (machine crash, retry exhaustion).
pub fn try_betweenness(
    engine: &mut Engine,
    sources: &[NodeId],
) -> Result<BetweennessResult, JobError> {
    let dist = engine.add_prop("bc_dist", UNSET);
    let sigma = engine.add_prop("bc_sigma", 0.0f64);
    let sigma_add = engine.add_prop("bc_sigma_add", 0.0f64);
    let frontier_count = engine.add_prop("bc_fcount", 0i64);
    let delta = engine.add_prop("bc_delta", 0.0f64);
    let coef = engine.add_prop("bc_coef", 0.0f64);
    let acc = engine.add_prop("bc_acc", 0.0f64);
    let bc = engine.add_prop("bc_out", 0.0f64);

    let run = |engine: &mut Engine, total_levels: &mut usize| -> Result<(), JobError> {
        for &source in sources {
            engine.try_run_node_job(
                &JobSpec::new(),
                ResetSource {
                    dist,
                    sigma,
                    delta,
                    source,
                },
            )?;
            // Forward BFS with path counting.
            let mut max_level = 0i64;
            loop {
                engine.try_run_edge_job(
                    Dir::Out,
                    &JobSpec::new(),
                    Expand {
                        dist,
                        sigma,
                        sigma_add,
                        frontier_count,
                        level: max_level,
                    },
                )?;
                *total_levels += 1;
                if engine.reduce::<i64>(frontier_count, ReduceOp::Sum) == 0 {
                    break;
                }
                max_level += 1;
            }
            // Backward dependency accumulation, deepest level first.
            for level in (0..max_level).rev() {
                engine.try_run_node_job(
                    &JobSpec::new(),
                    PublishCoef {
                        dist,
                        sigma,
                        delta,
                        coef,
                        level,
                    },
                )?;
                engine.try_run_edge_job(
                    Dir::Out,
                    &JobSpec::new(),
                    PullCoef {
                        dist,
                        sigma,
                        delta,
                        coef,
                        acc,
                        bc,
                        level,
                        source,
                    },
                )?;
                *total_levels += 1;
            }
        }
        Ok(())
    };
    let mut total_levels = 0usize;
    let outcome = run(engine, &mut total_levels);

    // Always release the scratch properties, even on a failed job.
    let centrality = engine.gather(bc);
    for p in [sigma, sigma_add, delta, coef, acc, bc] {
        engine.drop_prop(p);
    }
    engine.drop_prop(dist);
    engine.drop_prop(frontier_count);
    outcome?;
    Ok(BetweennessResult {
        centrality,
        sources: sources.len(),
        levels: total_levels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgxd::BuildEngine;
    use pgxd_baselines::seq;
    use pgxd_graph::{builder::graph_from_edges, generate};

    fn engine(machines: usize, g: &pgxd_graph::Graph) -> Engine {
        Engine::builder()
            .machines(machines)
            .ghost_threshold(Some(32))
            .engine(g)
            .unwrap()
    }

    fn all_sources(n: usize) -> Vec<NodeId> {
        (0..n as NodeId).collect()
    }

    #[test]
    fn path_graph_middle_is_most_between() {
        // 0 -> 1 -> 2 -> 3 -> 4: vertex 2 sits on the most paths.
        let g = generate::path(5);
        let mut e = engine(2, &g);
        let r = try_betweenness(&mut e, &all_sources(5)).unwrap();
        // Exact: bc(1) = 3 (paths 0→2,0→3,0→4... passing through 1):
        // pairs through 1: (0,2),(0,3),(0,4) = 3; through 2: (0,3),(0,4),(1,3),(1,4) = 4.
        assert_eq!(r.centrality[0], 0.0);
        assert_eq!(r.centrality[1], 3.0);
        assert_eq!(r.centrality[2], 4.0);
        assert_eq!(r.centrality[3], 3.0);
        assert_eq!(r.centrality[4], 0.0);
    }

    #[test]
    fn diamond_splits_path_counts() {
        // 0 -> {1,2} -> 3: two equal shortest paths; 1 and 2 each get 0.5.
        let g = graph_from_edges(4, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
        let mut e = engine(2, &g);
        let r = try_betweenness(&mut e, &all_sources(4)).unwrap();
        assert_eq!(r.centrality[0], 0.0);
        assert!((r.centrality[1] - 0.5).abs() < 1e-12);
        assert!((r.centrality[2] - 0.5).abs() < 1e-12);
        assert_eq!(r.centrality[3], 0.0);
    }

    #[test]
    fn star_hub_carries_everything() {
        // Mutual star: every spoke-to-spoke shortest path crosses the hub.
        let g = generate::star(6);
        let mut e = engine(3, &g);
        let r = try_betweenness(&mut e, &all_sources(7)).unwrap();
        // 6 spokes → 6*5 = 30 ordered spoke pairs, all through the hub.
        assert_eq!(r.centrality[0], 30.0);
        for &c in &r.centrality[1..] {
            assert_eq!(c, 0.0);
        }
    }

    #[test]
    fn matches_reference_on_random_graph() {
        let g = generate::rmat(6, 4, generate::RmatParams::skewed(), 99);
        let n = g.num_nodes();
        let reference = seq::betweenness(&g);
        let mut e = engine(3, &g);
        let r = try_betweenness(&mut e, &all_sources(n)).unwrap();
        for (i, (a, b)) in r.centrality.iter().zip(&reference).enumerate() {
            assert!((a - b).abs() < 1e-9, "vertex {i}: {a} vs {b}");
        }
    }

    #[test]
    fn distributed_matches_single_machine() {
        let g = generate::rmat(6, 3, generate::RmatParams::mild(), 98);
        let sources: Vec<NodeId> = (0..10).collect();
        let mut e1 = engine(1, &g);
        let a = try_betweenness(&mut e1, &sources).unwrap();
        let mut e4 = engine(4, &g);
        let b = try_betweenness(&mut e4, &sources).unwrap();
        for (x, y) in a.centrality.iter().zip(&b.centrality) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn sampling_subset_of_sources() {
        let g = generate::path(6);
        let mut e = engine(2, &g);
        let r = try_betweenness(&mut e, &[0]).unwrap();
        assert_eq!(r.sources, 1);
        // From source 0 only: dependency of vertex k (0<k<5) is 4-k.
        assert_eq!(r.centrality[1], 4.0);
        assert_eq!(r.centrality[4], 1.0);
        assert_eq!(r.centrality[0], 0.0);
    }
}
