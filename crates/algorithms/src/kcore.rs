//! KCore: find the biggest k-core number ("Find Biggest K-core number",
//! Table 2) by iterative peeling.
//!
//! This is the paper's stress test for framework overhead: "the KCore
//! algorithm requires a very large number of iteration steps [...] the
//! performance is totally governed by these overheads" (§5.2, §5.3.1).
//! Degrees count directed edges in both directions (in + out), and the
//! peeling loop repeatedly removes vertices whose remaining degree is
//! below `k`, notifying neighbors with a `Sum(-1)` push.

use pgxd::{
    Dir, EdgeTask, Engine, JobError, JobSpec, NodeCtx, NodeTask, Prop, ReduceOp, Reduction, Scatter,
};

/// Result of the k-core peeling.
#[derive(Clone, Debug)]
pub struct KCoreResult {
    /// The largest `k` such that the k-core is non-empty.
    pub max_core: i64,
    /// Core number per vertex (the largest `k`-core the vertex belongs to).
    pub core: Vec<i64>,
    /// Total parallel steps executed (the quantity that makes this
    /// algorithm overhead-bound).
    pub iterations: usize,
}

/// Marks vertices falling under the current threshold as dying.
struct MarkDying {
    deg: Prop<i64>,
    alive: Prop<bool>,
    dying: Prop<bool>,
    core: Prop<i64>,
    k: i64,
}
impl NodeTask for MarkDying {
    fn run(&self, ctx: &mut NodeCtx<'_, '_>) {
        if ctx.get(self.alive) && ctx.get(self.deg) < self.k {
            ctx.set(self.alive, false);
            ctx.set(self.dying, true);
            ctx.set(self.core, self.k - 1);
        } else {
            ctx.set(self.dying, false);
        }
    }
}

/// Dying vertices decrement each neighbor's remaining degree: they
/// scatter a column that is −1 everywhere.
struct NotifyNeighbors {
    minus_one: Prop<i64>,
    deg: Prop<i64>,
    dying: Prop<bool>,
}
impl EdgeTask for NotifyNeighbors {
    fn filter(&self, ctx: &mut NodeCtx<'_, '_>) -> bool {
        ctx.get(self.dying)
    }
    fn reduction(&self) -> Option<Reduction> {
        Some(Scatter::new(self.minus_one, self.deg, ReduceOp::Sum).into())
    }
}

/// Loads the initial degree (in + out).
struct InitDegree {
    deg: Prop<i64>,
}
impl NodeTask for InitDegree {
    fn run(&self, ctx: &mut NodeCtx<'_, '_>) {
        ctx.set(self.deg, (ctx.in_degree() + ctx.out_degree()) as i64);
    }
}

/// Computes the biggest k-core number and per-vertex core numbers.
/// Returns `Err` instead of panicking when the cluster aborts mid-job
/// (machine crash, retry exhaustion).
pub fn try_kcore(engine: &mut Engine, max_k: i64) -> Result<KCoreResult, JobError> {
    let deg = engine.add_prop("kc_deg", 0i64);
    let alive = engine.add_prop("kc_alive", true);
    let dying = engine.add_prop("kc_dying", false);
    let core = engine.add_prop("kc_core", 0i64);
    let minus_one = engine.add_prop("kc_minus_one", -1i64);

    let run =
        |engine: &mut Engine, iterations: &mut usize, max_core: &mut i64| -> Result<(), JobError> {
            engine.try_run_node_job(&JobSpec::new(), InitDegree { deg })?;

            let mut k = 1i64;
            while k <= max_k {
                // Inner peeling loop for this k: remove until stable.
                loop {
                    *iterations += 1;
                    engine.try_run_node_job(
                        &JobSpec::new(),
                        MarkDying {
                            deg,
                            alive,
                            dying,
                            core,
                            k,
                        },
                    )?;
                    if engine.count_true(dying) == 0 {
                        break;
                    }
                    *iterations += 2;
                    for dir in [Dir::Out, Dir::In] {
                        let notify = NotifyNeighbors {
                            minus_one,
                            deg,
                            dying,
                        };
                        engine.try_run_edge_job(dir, &JobSpec::new(), notify)?;
                    }
                }
                let survivors = engine.count_true(alive);
                if survivors == 0 {
                    *max_core = k - 1;
                    break;
                }
                *max_core = k;
                k += 1;
            }
            Ok(())
        };
    let mut iterations = 1usize;
    let mut max_core = 0i64;
    let outcome = run(engine, &mut iterations, &mut max_core);

    // Vertices still alive when the loop ended survive at max_core.
    let alive_flags = engine.gather(alive);
    let mut core_out = engine.gather(core);
    for (c, &a) in core_out.iter_mut().zip(&alive_flags) {
        if a {
            *c = max_core;
        }
    }

    engine.drop_prop(deg);
    engine.drop_prop(alive);
    engine.drop_prop(dying);
    engine.drop_prop(core);
    engine.drop_prop(minus_one);
    outcome?;
    Ok(KCoreResult {
        max_core,
        core: core_out,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgxd::BuildEngine;
    use pgxd_graph::{builder::graph_from_edges, generate};

    fn engine(machines: usize, g: &pgxd_graph::Graph) -> Engine {
        Engine::builder().machines(machines).engine(g).unwrap()
    }

    #[test]
    fn complete_graph_core() {
        // Directed K5: every vertex has degree 8 (4 in + 4 out); the whole
        // graph survives until k = 8 and vanishes at k = 9.
        let g = generate::complete(5);
        let mut e = engine(2, &g);
        let r = try_kcore(&mut e, 64).unwrap();
        assert_eq!(r.max_core, 8);
        assert!(r.core.iter().all(|&c| c == 8));
    }

    #[test]
    fn ring_core() {
        // Directed ring: degree 2 everywhere → max core 2.
        let g = generate::ring(12);
        let mut e = engine(3, &g);
        let r = try_kcore(&mut e, 64).unwrap();
        assert_eq!(r.max_core, 2);
    }

    #[test]
    fn star_peels_spokes_first() {
        // Star with mutual edges: spokes have degree 2, hub 2*spokes.
        // At k=3 every spoke dies, which starves the hub: max core 2.
        let g = generate::star(10);
        let mut e = engine(2, &g);
        let r = try_kcore(&mut e, 64).unwrap();
        assert_eq!(r.max_core, 2);
        assert!(r.core.iter().all(|&c| c == 2));
    }

    #[test]
    fn core_numbers_mixed() {
        // A triangle with mutual edges (core 4: each vertex has in+out
        // degree 4 inside the triangle) plus a pendant vertex.
        let g = graph_from_edges(
            4,
            vec![(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2), (3, 0)],
        );
        let mut e = engine(2, &g);
        let r = try_kcore(&mut e, 64).unwrap();
        assert_eq!(r.max_core, 4);
        assert_eq!(r.core[3], 1, "pendant vertex peels at k=2");
        assert!(r.core[..3].iter().all(|&c| c == 4));
    }

    #[test]
    fn matches_single_machine() {
        let g = generate::rmat(7, 4, generate::RmatParams::skewed(), 71);
        let mut e1 = engine(1, &g);
        let a = try_kcore(&mut e1, 256).unwrap();
        let mut e3 = engine(3, &g);
        let b = try_kcore(&mut e3, 256).unwrap();
        assert_eq!(a.max_core, b.max_core);
        assert_eq!(a.core, b.core);
    }

    #[test]
    fn empty_graph() {
        let g = graph_from_edges(3, vec![]);
        let mut e = engine(2, &g);
        let r = try_kcore(&mut e, 8).unwrap();
        assert_eq!(r.max_core, 0);
        assert!(r.core.iter().all(|&c| c == 0));
    }
}
