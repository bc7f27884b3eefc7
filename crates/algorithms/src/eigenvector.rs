//! EigenVector centrality, first component, by power iteration — "similar
//! to exact Pagerank computation: every vertex is computing a new value
//! from its neighbors at every iteration step. PGX.D implements this
//! algorithm with data pulling." (§5.2)

use pgxd::{
    Dir, EdgeTask, Engine, Fold, JobError, JobSpec, NodeChunk, NodeTask, Prop, ReduceOp, Reduction,
};

/// Result of eigenvector centrality.
#[derive(Clone, Debug)]
pub struct EigenVectorResult {
    /// Centrality per vertex, L2-normalized.
    pub centrality: Vec<f64>,
    /// Power iterations executed.
    pub iterations: usize,
}

/// Normalizes: `ev = nxt / norm`, `sq = ev²` for the next norm, and the
/// per-vertex change for convergence.
struct Normalize {
    ev: Prop<f64>,
    nxt: Prop<f64>,
    sq: Prop<f64>,
    diff: Prop<f64>,
    inv_norm: f64,
}
impl NodeTask for Normalize {
    fn run_chunk(&self, chunk: &mut NodeChunk<'_, '_>) {
        let (ev, nxt) = (chunk.col(self.ev), chunk.col(self.nxt));
        let (sq, diff) = (chunk.col(self.sq), chunk.col(self.diff));
        for v in chunk.nodes() {
            let new = nxt.get(v) * self.inv_norm;
            let old = ev.get(v);
            ev.set(v, new);
            nxt.set(v, 0.0);
            sq.set(v, new * new);
            diff.set(v, (new - old).abs());
        }
    }
}

/// Pulls `ev` from each in-neighbor and accumulates it into `nxt`; the
/// epilogue squares `nxt` into `sq` so the driver can compute the L2 norm.
struct Pull {
    ev: Prop<f64>,
    nxt: Prop<f64>,
    sq: Prop<f64>,
}
impl EdgeTask for Pull {
    fn reduction(&self) -> Option<Reduction> {
        Some(Fold::new(self.ev, self.nxt, ReduceOp::Sum).into())
    }
    fn epilogue(&self, chunk: &mut NodeChunk<'_, '_>) {
        let (nxt, sq) = (chunk.col(self.nxt), chunk.col(self.sq));
        for v in chunk.nodes() {
            let x = nxt.get(v);
            sq.set(v, x * x);
        }
    }
}

/// Computes eigenvector centrality (first principal component of the
/// adjacency matrix) by power iteration with per-step L2 normalization.
/// Returns `Err` instead of panicking when the cluster aborts mid-job
/// (machine crash, retry exhaustion).
pub fn try_eigenvector(
    engine: &mut Engine,
    max_iters: usize,
    tol: f64,
) -> Result<EigenVectorResult, JobError> {
    let n = engine.num_nodes();
    let init = 1.0 / (n as f64).sqrt();
    let ev = engine.add_prop("ev", init);
    let nxt = engine.add_prop("ev_nxt", 0.0f64);
    let sq = engine.add_prop("ev_sq", 0.0f64);
    let diff = engine.add_prop("ev_diff", 0.0f64);

    let run = |engine: &mut Engine, iterations: &mut usize| -> Result<(), JobError> {
        for _ in 0..max_iters {
            *iterations += 1;
            engine.try_run_edge_job(Dir::In, &JobSpec::new(), Pull { ev, nxt, sq })?;
            // Sequential region: global L2 norm.
            let norm = engine.reduce(sq, ReduceOp::Sum).sqrt();
            let inv_norm = if norm > 0.0 { 1.0 / norm } else { 0.0 };
            engine.try_run_node_job(
                &JobSpec::new(),
                Normalize {
                    ev,
                    nxt,
                    sq,
                    diff,
                    inv_norm,
                },
            )?;
            if engine.reduce(diff, ReduceOp::Sum) < tol {
                break;
            }
        }
        Ok(())
    };
    let mut iterations = 0;
    let outcome = run(engine, &mut iterations);

    // Always release the scratch properties, even on a failed job.
    let centrality = engine.gather(ev);
    engine.drop_prop(ev);
    engine.drop_prop(nxt);
    engine.drop_prop(sq);
    engine.drop_prop(diff);
    outcome?;
    Ok(EigenVectorResult {
        centrality,
        iterations,
    })
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
    fn complete_graph_uniform_centrality() {
        let g = generate::complete(8);
        let mut e = engine(2, &g);
        let r = try_eigenvector(&mut e, 50, 1e-12).unwrap();
        let expect = 1.0 / (8f64).sqrt();
        for &c in &r.centrality {
            assert!((c - expect).abs() < 1e-6, "{c}");
        }
    }

    #[test]
    fn result_is_l2_normalized() {
        let g = generate::rmat(8, 4, generate::RmatParams::skewed(), 61);
        let mut e = engine(3, &g);
        let r = try_eigenvector(&mut e, 30, 0.0).unwrap();
        let norm: f64 = r.centrality.iter().map(|c| c * c).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9, "norm {norm}");
    }

    #[test]
    fn hub_has_highest_centrality() {
        // A hub connected to every spoke plus a ring over the spokes: the
        // ring breaks bipartiteness (a plain star oscillates under power
        // iteration because its spectrum is ±sqrt(n)), and the hub
        // dominates the first component.
        let mut b = pgxd_graph::GraphBuilder::new();
        let spokes = 12u32;
        for s in 1..=spokes {
            b.add_edge(0, s).add_edge(s, 0);
            b.add_edge(s, s % spokes + 1);
        }
        let g = b.build();
        let mut e = engine(2, &g);
        let r = try_eigenvector(&mut e, 200, 1e-12).unwrap();
        let hub = r.centrality[0];
        for &c in &r.centrality[1..] {
            assert!(hub > c, "hub {hub} vs spoke {c}");
        }
    }

    #[test]
    fn matches_single_machine() {
        let g = generate::rmat(7, 5, generate::RmatParams::mild(), 62);
        let mut e1 = engine(1, &g);
        let a = try_eigenvector(&mut e1, 20, 0.0).unwrap();
        let mut e4 = engine(4, &g);
        let b = try_eigenvector(&mut e4, 20, 0.0).unwrap();
        for (x, y) in a.centrality.iter().zip(&b.centrality) {
            assert!((x - y).abs() < 1e-9);
        }
    }
}
