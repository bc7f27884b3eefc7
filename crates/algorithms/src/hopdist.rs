//! Hop Distance: breadth-first traversal from a root ("Hop Dist:
//! Breadth-first traversal from the root", Table 2). Level-synchronous
//! frontier expansion: a `Min` scatter of the frontier's `hops`, one
//! added on arrival. A level is one job.

use pgxd::recover::{ResumableAlgorithm, StepOutcome};
use pgxd::{
    Dir, EdgeTask, Engine, JobError, JobSpec, NodeChunk, NodeCtx, NodeId, Prop, ReduceOp,
    Reduction, Scatter,
};

/// Result of a hop-distance traversal.
#[derive(Clone, Debug)]
pub struct HopDistResult {
    /// Hop count from the root per vertex (`i64::MAX` if unreachable).
    pub hops: Vec<i64>,
    /// BFS levels executed (== eccentricity of the root + 1).
    pub iterations: usize,
}

/// Frontier vertices scatter their `hops` to their out-neighbors' `nxt`;
/// the epilogue adds the hop, so the minimum is taken before it, and
/// makes the vertices it brought closer the next frontier.
struct Expand {
    hops: Prop<i64>,
    nxt: Prop<i64>,
    frontier: Prop<bool>,
}
impl EdgeTask for Expand {
    fn filter(&self, ctx: &mut NodeCtx<'_, '_>) -> bool {
        ctx.get(self.frontier)
    }
    fn reduction(&self) -> Option<Reduction> {
        Some(Scatter::new(self.hops, self.nxt, ReduceOp::Min).into())
    }
    fn epilogue(&self, chunk: &mut NodeChunk<'_, '_>) {
        let (hops, nxt) = (chunk.col(self.hops), chunk.col(self.nxt));
        let frontier = chunk.col(self.frontier);
        for v in chunk.nodes() {
            // `nxt` is `i64::MAX` where nothing arrived; it stays
            // unreachable.
            let (cand, cur) = (nxt.get(v).saturating_add(1), hops.get(v));
            let closer = cand < cur;
            hops.set(v, if closer { cand } else { cur });
            frontier.set(v, closer);
            nxt.set(v, i64::MAX);
        }
    }
}

/// BFS decomposed into driver-visible levels: the one body behind
/// [`try_hopdist`] and the form the recovery driver checkpoints between.
/// The frontier lives in a checkpointed bool property, so a restored
/// attempt resumes expansion exactly where the snapshot left it.
pub struct ResumableHopDist {
    root: NodeId,
    iterations: usize,
    props: Option<(Prop<i64>, Prop<i64>, Prop<bool>)>,
}

impl ResumableHopDist {
    pub fn new(root: NodeId) -> Self {
        ResumableHopDist {
            root,
            iterations: 0,
            props: None,
        }
    }
}

impl ResumableAlgorithm for ResumableHopDist {
    type Output = HopDistResult;

    fn setup(&mut self, engine: &mut Engine) {
        let hops = engine.add_prop("hop_dist", i64::MAX);
        let nxt = engine.add_prop("hop_nxt", i64::MAX);
        let frontier = engine.add_prop("hop_frontier", false);
        engine.set(hops, self.root, 0i64);
        engine.set(frontier, self.root, true);
        self.props = Some((hops, nxt, frontier));
        self.iterations = 0;
    }

    fn step(&mut self, engine: &mut Engine, iteration: u64) -> Result<StepOutcome, JobError> {
        let (hops, nxt, frontier) = self.props.expect("setup ran");
        if engine.count_true(frontier) == 0 {
            return Ok(StepOutcome::Done);
        }
        engine.try_run_edge_job(
            Dir::Out,
            &JobSpec::new(),
            Expand {
                hops,
                nxt,
                frontier,
            },
        )?;
        self.iterations = iteration as usize + 1;
        Ok(StepOutcome::Continue)
    }

    fn scalars(&self) -> Vec<u64> {
        vec![self.iterations as u64]
    }

    fn restore_scalars(&mut self, scalars: &[u64]) {
        self.iterations = scalars[0] as usize;
    }

    fn finish(&mut self, engine: &mut Engine) -> HopDistResult {
        let (hops, nxt, frontier) = self.props.take().expect("setup ran");
        let out = engine.gather(hops);
        engine.drop_prop(hops);
        engine.drop_prop(nxt);
        engine.drop_prop(frontier);
        HopDistResult {
            hops: out,
            iterations: self.iterations,
        }
    }
}

/// Breadth-first hop distances from `root` along out-edges. Returns `Err`
/// instead of panicking when the cluster aborts mid-job (machine crash,
/// retry exhaustion).
pub fn try_hopdist(engine: &mut Engine, root: NodeId) -> Result<HopDistResult, JobError> {
    ResumableHopDist::new(root).run_to_completion(engine)
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
    fn tree_levels() {
        let g = generate::binary_tree(15);
        let mut e = engine(2, &g);
        let r = try_hopdist(&mut e, 0).unwrap();
        assert_eq!(r.hops[0], 0);
        assert_eq!(r.hops[1], 1);
        assert_eq!(r.hops[2], 1);
        assert_eq!(r.hops[7], 3);
        assert_eq!(r.hops[14], 3);
        assert_eq!(r.iterations, 4, "3 levels + 1 empty frontier check");
    }

    #[test]
    fn grid_manhattan_distance() {
        let g = generate::grid(4, 5); // edges right and down only
        let mut e = engine(3, &g);
        let r = try_hopdist(&mut e, 0).unwrap();
        for row in 0..4i64 {
            for col in 0..5i64 {
                assert_eq!(r.hops[(row * 5 + col) as usize], row + col);
            }
        }
    }

    #[test]
    fn unreachable_stays_max() {
        let g = generate::path(3);
        let mut e = engine(2, &g);
        let r = try_hopdist(&mut e, 1).unwrap();
        assert_eq!(r.hops, vec![i64::MAX, 0, 1]);
    }

    #[test]
    fn matches_single_machine() {
        let g = generate::rmat(9, 4, generate::RmatParams::skewed(), 51);
        let mut e1 = engine(1, &g);
        let a = try_hopdist(&mut e1, 0).unwrap();
        let mut e4 = engine(4, &g);
        let b = try_hopdist(&mut e4, 0).unwrap();
        assert_eq!(a.hops, b.hops);
    }
}
