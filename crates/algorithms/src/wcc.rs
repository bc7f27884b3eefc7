//! Weakly Connected Components: `Min`-label propagation in both edge
//! directions with vertex reactivation ("In WCC, a deactivated node can
//! later be active again", §5.2).

use pgxd::{
    CancelToken, Dir, EdgeTask, Engine, JobError, JobSpec, NodeChunk, NodeCtx, Prop, ReduceOp,
    Reduction, Scatter,
};

/// Result of WCC.
#[derive(Clone, Debug)]
pub struct WccResult {
    /// Component label per vertex: the smallest vertex id in its weakly
    /// connected component.
    pub component: Vec<u32>,
    /// Number of distinct components.
    pub num_components: usize,
    /// Iterations executed.
    pub iterations: usize,
}

/// Pushes this vertex's label to the neighbor with a `Min` reduction. The
/// round's last push, with `adopt`, ends with the vertices adopting a
/// smaller incoming label: exactly those are active next round.
struct PushLabel {
    comp: Prop<u32>,
    nxt: Prop<u32>,
    active: Prop<bool>,
    adopt: bool,
}
impl EdgeTask for PushLabel {
    fn filter(&self, ctx: &mut NodeCtx<'_, '_>) -> bool {
        ctx.get(self.active)
    }
    fn reduction(&self) -> Option<Reduction> {
        Some(Scatter::new(self.comp, self.nxt, ReduceOp::Min).into())
    }
    fn epilogue(&self, chunk: &mut NodeChunk<'_, '_>) {
        if !self.adopt {
            return;
        }
        let (comp, nxt) = (chunk.col(self.comp), chunk.col(self.nxt));
        let active = chunk.col(self.active);
        for v in chunk.nodes() {
            let (new, cur) = (nxt.get(v), comp.get(v));
            let adopt = new < cur;
            comp.set(v, if adopt { new } else { cur });
            active.set(v, adopt);
            nxt.set(v, u32::MAX);
        }
    }
}

/// Computes weakly connected components by label propagation. Returns
/// `Err` instead of panicking when the cluster aborts mid-job (machine
/// crash, retry exhaustion).
pub fn try_wcc(engine: &mut Engine) -> Result<WccResult, JobError> {
    try_wcc_with(engine, &CancelToken::never())
}

/// [`try_wcc`] with a cancellation token: a fired token (explicit cancel
/// or deadline) stops the propagation within one chunk and surfaces
/// `JobError::Cancelled` / `JobError::DeadlineExceeded`; scratch
/// properties are released either way.
pub fn try_wcc_with(engine: &mut Engine, cancel: &CancelToken) -> Result<WccResult, JobError> {
    let comp = engine.add_prop("wcc_comp", 0u32);
    let nxt = engine.add_prop("wcc_nxt", u32::MAX);
    let active = engine.add_prop("wcc_active", true);

    // Sequential init region: comp[v] = v.
    for v in 0..engine.num_nodes() as u32 {
        engine.set(comp, v, v);
    }

    let run = |engine: &mut Engine, iterations: &mut usize| -> Result<(), JobError> {
        loop {
            *iterations += 1;
            // Weak connectivity: propagate along out-edges AND in-edges.
            for dir in [Dir::Out, Dir::In] {
                let push = PushLabel {
                    comp,
                    nxt,
                    active,
                    adopt: dir == Dir::In,
                };
                engine.try_run_edge_job_with(dir, &JobSpec::new(), push, cancel)?;
            }
            if engine.count_true(active) == 0 {
                return Ok(());
            }
        }
    };
    let mut iterations = 0;
    let outcome = run(engine, &mut iterations);

    // Always release the scratch properties, even on a failed job.
    let component = engine.gather(comp);
    let mut labels = component.clone();
    labels.sort_unstable();
    labels.dedup();
    let num_components = labels.len();

    engine.drop_prop(comp);
    engine.drop_prop(nxt);
    engine.drop_prop(active);
    outcome?;
    Ok(WccResult {
        component,
        num_components,
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
    fn ring_is_one_component() {
        let g = generate::ring(24);
        let mut e = engine(3, &g);
        let r = try_wcc(&mut e).unwrap();
        assert_eq!(r.num_components, 1);
        assert!(r.component.iter().all(|&c| c == 0));
    }

    #[test]
    fn disjoint_pieces_found() {
        // Two directed paths and one isolated node: 3 components.
        let g = graph_from_edges(7, vec![(0, 1), (1, 2), (3, 4), (4, 5)]);
        let mut e = engine(2, &g);
        let r = try_wcc(&mut e).unwrap();
        assert_eq!(r.num_components, 3);
        assert_eq!(r.component[0], r.component[2]);
        assert_eq!(r.component[3], r.component[5]);
        assert_ne!(r.component[0], r.component[3]);
        assert_eq!(r.component[6], 6);
    }

    #[test]
    fn direction_ignored_for_weak_connectivity() {
        // 0 -> 1 <- 2: weakly connected even though not strongly.
        let g = graph_from_edges(3, vec![(0, 1), (2, 1)]);
        let mut e = engine(2, &g);
        let r = try_wcc(&mut e).unwrap();
        assert_eq!(r.num_components, 1);
    }

    #[test]
    fn matches_single_machine() {
        let g = generate::rmat(8, 3, generate::RmatParams::skewed(), 31);
        let mut e1 = engine(1, &g);
        let a = try_wcc(&mut e1).unwrap();
        let mut e4 = engine(4, &g);
        let b = try_wcc(&mut e4).unwrap();
        assert_eq!(a.component, b.component);
        assert_eq!(a.num_components, b.num_components);
    }

    #[test]
    fn ghosts_do_not_change_result() {
        let g = generate::rmat(8, 6, generate::RmatParams::skewed(), 32);
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
        let a = try_wcc(&mut plain).unwrap();
        let b = try_wcc(&mut ghosted).unwrap();
        assert_eq!(a.component, b.component);
    }
}
