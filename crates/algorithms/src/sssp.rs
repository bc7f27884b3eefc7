//! Single-Source Shortest Paths, Bellman-Ford style: active vertices relax
//! their out-edges with a `Min` push ("The SSSP algorithm uses edge
//! weights. We generated these values using a uniform random
//! distribution", §5.2).

use pgxd::{
    Dir, EdgeCtx, EdgeTask, Engine, JobError, JobSpec, NodeChunk, NodeCtx, NodeId, Prop, ReduceOp,
};

/// Result of SSSP.
#[derive(Clone, Debug)]
pub struct SsspResult {
    /// Distance from the root per vertex (`f64::INFINITY` if unreachable).
    pub dist: Vec<f64>,
    /// Relaxation rounds executed.
    pub iterations: usize,
}

/// Active vertices relax their weighted out-edges into `nxt`; the
/// epilogue settles the vertices whose distance `nxt` improved, and exactly
/// those are active next round.
struct Relax {
    dist: Prop<f64>,
    nxt: Prop<f64>,
    active: Prop<bool>,
}
impl EdgeTask for Relax {
    fn filter(&self, ctx: &mut NodeCtx<'_, '_>) -> bool {
        ctx.get(self.active)
    }
    fn run(&self, ctx: &mut EdgeCtx<'_, '_>) {
        let d = ctx.get(self.dist) + ctx.edge_weight();
        ctx.write_nbr(self.nxt, ReduceOp::Min, d);
    }
    fn epilogue(&self, chunk: &mut NodeChunk<'_, '_>) {
        let (dist, nxt) = (chunk.col(self.dist), chunk.col(self.nxt));
        let active = chunk.col(self.active);
        for v in chunk.nodes() {
            let (cand, cur) = (nxt.get(v), dist.get(v));
            let closer = cand < cur;
            if closer {
                dist.set(v, cand);
            }
            active.set(v, closer);
            nxt.set(v, f64::INFINITY);
        }
    }
}

/// Computes shortest-path distances from `root`. Unweighted graphs use
/// weight 1 per edge (making this equivalent to [`try_hopdist`](crate::try_hopdist)
/// with `f64` levels). Returns `Err` instead of panicking when the cluster
/// aborts mid-job (machine crash, retry exhaustion), and a
/// [`JobError::Protocol`] naming the negative cycle when one is reachable
/// from `root`: without one, every distance is settled within as many
/// rounds as there are vertices, so a vertex still improving after that
/// lies on or behind such a cycle.
pub fn try_sssp(engine: &mut Engine, root: NodeId) -> Result<SsspResult, JobError> {
    let n = engine.num_nodes();
    let dist = engine.add_prop("sssp_dist", f64::INFINITY);
    let nxt = engine.add_prop("sssp_nxt", f64::INFINITY);
    let active = engine.add_prop("sssp_active", false);

    engine.set(dist, root, 0.0f64);
    engine.set(active, root, true);

    let run = |engine: &mut Engine, iterations: &mut usize| -> Result<(), JobError> {
        while engine.count_true(active) > 0 {
            if *iterations == n {
                return Err(JobError::Protocol(format!(
                    "a negative cycle is reachable from vertex {root}: \
                     distances still improve after {n} rounds"
                )));
            }
            *iterations += 1;
            engine.try_run_edge_job(
                Dir::Out,
                &JobSpec::new().reduce(nxt, ReduceOp::Min),
                Relax { dist, nxt, active },
            )?;
        }
        Ok(())
    };
    let mut iterations = 0;
    let outcome = run(engine, &mut iterations);

    // Always release the scratch properties, even on a failed job.
    let out = engine.gather(dist);
    engine.drop_prop(dist);
    engine.drop_prop(nxt);
    engine.drop_prop(active);
    outcome?;
    Ok(SsspResult {
        dist: out,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgxd::BuildEngine;
    use pgxd_graph::{generate, GraphBuilder};

    fn engine(machines: usize, g: &pgxd_graph::Graph) -> Engine {
        Engine::builder().machines(machines).engine(g).unwrap()
    }

    #[test]
    fn path_distances() {
        let g = generate::path(6);
        let mut e = engine(2, &g);
        let r = try_sssp(&mut e, 0).unwrap();
        assert_eq!(r.dist, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn unreachable_is_infinite() {
        let g = generate::path(4); // 3 -> nothing; start from 2
        let mut e = engine(2, &g);
        let r = try_sssp(&mut e, 2).unwrap();
        assert_eq!(r.dist[2], 0.0);
        assert_eq!(r.dist[3], 1.0);
        assert!(r.dist[0].is_infinite());
        assert!(r.dist[1].is_infinite());
    }

    #[test]
    fn weighted_takes_cheaper_route() {
        // 0->1 (10), 0->2 (1), 2->1 (2): best 0→1 is 3 via 2.
        let mut b = GraphBuilder::new();
        b.add_weighted_edge(0, 1, 10.0)
            .add_weighted_edge(0, 2, 1.0)
            .add_weighted_edge(2, 1, 2.0);
        let g = b.build();
        let mut e = engine(2, &g);
        let r = try_sssp(&mut e, 0).unwrap();
        assert_eq!(r.dist, vec![0.0, 3.0, 1.0]);
    }

    #[test]
    fn matches_single_machine_on_weighted_rmat() {
        let g = generate::rmat(8, 4, generate::RmatParams::skewed(), 41)
            .with_uniform_weights(1.0, 10.0, 7);
        let mut e1 = engine(1, &g);
        let a = try_sssp(&mut e1, 0).unwrap();
        let mut e3 = engine(3, &g);
        let b = try_sssp(&mut e3, 0).unwrap();
        for (x, y) in a.dist.iter().zip(&b.dist) {
            assert!(
                (x - y).abs() < 1e-9 || (x.is_infinite() && y.is_infinite()),
                "{x} vs {y}"
            );
        }
    }

    /// Vertices 0 and 1 form a cycle of weight −2: the run fails instead
    /// of relaxing it forever, and leaves no column behind.
    #[test]
    fn negative_cycle_is_an_error() {
        let text = "0 1 -1\n1 0 -1\n1 2 1\n";
        let g = pgxd_graph::io::read_text_edge_list(text.as_bytes()).unwrap();
        let mut e = engine(2, &g);
        let live = e.cluster().machine(0).props.live().len();
        let err = try_sssp(&mut e, 0).unwrap_err();
        let JobError::Protocol(msg) = err else {
            panic!("expected a protocol error, got {err:?}");
        };
        assert!(msg.contains("negative cycle"), "{msg}");
        assert_eq!(e.cluster().machine(0).props.live().len(), live);
    }

    #[test]
    fn ring_wraps_around() {
        let g = generate::ring(10);
        let mut e = engine(3, &g);
        let r = try_sssp(&mut e, 7).unwrap();
        assert_eq!(r.dist[7], 0.0);
        assert_eq!(r.dist[8], 1.0);
        assert_eq!(r.dist[6], 9.0);
    }
}
