//! Maximal Independent Set (Luby's algorithm) — not part of the paper's
//! Table 2, included to demonstrate that the task framework generalizes
//! beyond neighborhood-sum kernels ("Our next goal is to extend the
//! compiler so that it can even translate algorithms that are not
//! neighborhood iterating", §4.3).
//!
//! Each round: every undecided vertex draws a deterministic pseudo-random
//! priority, pushes it to its (undirected) neighbors with a `Max`
//! reduction, and joins the MIS if its own priority strictly beats every
//! undecided neighbor's; neighbors of new members drop out. Expected
//! O(log n) rounds.

use pgxd::{
    Dir, EdgeTask, Engine, JobError, JobSpec, NodeChunk, NodeCtx, NodeTask, Prop, ReduceOp,
    Reduction, Scatter,
};

/// Result of the MIS computation.
#[derive(Clone, Debug)]
pub struct MisResult {
    /// Membership flag per vertex.
    pub in_set: Vec<bool>,
    /// Luby rounds executed.
    pub rounds: usize,
}

/// Vertex states: 0 = undecided, 1 = in MIS, 2 = excluded.
const UNDECIDED: i64 = 0;
const IN_SET: i64 = 1;
const EXCLUDED: i64 = 2;

fn priority(v: u32, round: u64) -> u64 {
    // SplitMix64 over (vertex, round): deterministic, uncorrelated enough,
    // and identical on every machine. Guaranteed non-zero so that a
    // priority always beats the Max-bottom (0) of isolated comparisons.
    let mut x = (v as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(round.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    (x | 1) << 1 // even-shifted, non-zero; low bit reserved
}

/// Draws this round's priority into `prio` for undecided vertices.
struct Draw {
    state: Prop<i64>,
    prio: Prop<u64>,
    round: u64,
}
impl NodeTask for Draw {
    fn run(&self, ctx: &mut NodeCtx<'_, '_>) {
        if ctx.get(self.state) == UNDECIDED {
            ctx.set(self.prio, priority(ctx.node(), self.round));
        } else {
            ctx.set(self.prio, 0u64);
        }
    }
}

/// Pushes the vertex's priority to neighbors (both directions — MIS is an
/// undirected notion). The second push ends with [`Join`].
struct PushPrio {
    state: Prop<i64>,
    prio: Prop<u64>,
    nbr_max: Prop<u64>,
    join: Option<Join>,
}
impl EdgeTask for PushPrio {
    fn filter(&self, ctx: &mut NodeCtx<'_, '_>) -> bool {
        ctx.get(self.state) == UNDECIDED
    }
    fn reduction(&self) -> Option<Reduction> {
        Some(Scatter::new(self.prio, self.nbr_max, ReduceOp::Max).into())
    }
    fn epilogue(&self, chunk: &mut NodeChunk<'_, '_>) {
        if let Some(join) = &self.join {
            join.run_chunk(chunk);
        }
    }
}

/// Joins the MIS when strictly dominating every undecided neighbor.
struct Join {
    state: Prop<i64>,
    prio: Prop<u64>,
    nbr_max: Prop<u64>,
    joined: Prop<bool>,
}
impl NodeTask for Join {
    fn run(&self, ctx: &mut NodeCtx<'_, '_>) {
        let joins = ctx.get(self.state) == UNDECIDED && ctx.get(self.prio) > ctx.get(self.nbr_max);
        if joins {
            ctx.set(self.state, IN_SET);
        }
        ctx.set(self.joined, joins);
        ctx.set(self.nbr_max, 0u64);
    }
}

/// New members exclude their still-undecided neighbors: the filter passes
/// only them, so the `joined` they scatter is `true`. The second push ends
/// with [`ApplyExclusions`].
struct Exclude {
    joined: Prop<bool>,
    excluded_flag: Prop<bool>,
    apply: Option<ApplyExclusions>,
}
impl EdgeTask for Exclude {
    fn filter(&self, ctx: &mut NodeCtx<'_, '_>) -> bool {
        ctx.get(self.joined)
    }
    fn reduction(&self) -> Option<Reduction> {
        Some(Scatter::new(self.joined, self.excluded_flag, ReduceOp::Or).into())
    }
    fn epilogue(&self, chunk: &mut NodeChunk<'_, '_>) {
        if let Some(apply) = &self.apply {
            apply.run_chunk(chunk);
        }
    }
}

/// Applies exclusions.
struct ApplyExclusions {
    state: Prop<i64>,
    excluded_flag: Prop<bool>,
    undecided: Prop<bool>,
}
impl NodeTask for ApplyExclusions {
    fn run(&self, ctx: &mut NodeCtx<'_, '_>) {
        if ctx.get(self.excluded_flag) && ctx.get(self.state) == UNDECIDED {
            ctx.set(self.state, EXCLUDED);
        }
        ctx.set(self.excluded_flag, false);
        let still_undecided = ctx.get(self.state) == UNDECIDED;
        ctx.set(self.undecided, still_undecided);
    }
}

/// Computes a maximal independent set of the underlying undirected graph
/// (edge directions ignored). Returns `Err` instead of panicking when the
/// cluster aborts mid-job (machine crash, retry exhaustion).
pub fn try_mis(engine: &mut Engine) -> Result<MisResult, JobError> {
    let state = engine.add_prop("mis_state", UNDECIDED);
    let prio = engine.add_prop("mis_prio", 0u64);
    let nbr_max = engine.add_prop("mis_nbr_max", 0u64);
    let joined = engine.add_prop("mis_joined", false);
    let excluded_flag = engine.add_prop("mis_excl", false);
    let undecided = engine.add_prop("mis_undecided", true);

    let run = |engine: &mut Engine, rounds: &mut usize| -> Result<(), JobError> {
        while engine.count_true(undecided) > 0 {
            *rounds += 1;
            engine.try_run_node_job(
                &JobSpec::new(),
                Draw {
                    state,
                    prio,
                    round: *rounds as u64,
                },
            )?;
            for dir in [Dir::Out, Dir::In] {
                let push = PushPrio {
                    state,
                    prio,
                    nbr_max,
                    join: (dir == Dir::In).then_some(Join {
                        state,
                        prio,
                        nbr_max,
                        joined,
                    }),
                };
                engine.try_run_edge_job(dir, &JobSpec::new(), push)?;
            }
            for dir in [Dir::Out, Dir::In] {
                let exclude = Exclude {
                    joined,
                    excluded_flag,
                    apply: (dir == Dir::In).then_some(ApplyExclusions {
                        state,
                        excluded_flag,
                        undecided,
                    }),
                };
                engine.try_run_edge_job(dir, &JobSpec::new(), exclude)?;
            }
        }
        Ok(())
    };
    let mut rounds = 0;
    let outcome = run(engine, &mut rounds);

    // Always release the scratch properties, even on a failed job.
    let states = engine.gather::<i64>(state);
    engine.drop_prop(state);
    engine.drop_prop(prio);
    engine.drop_prop(nbr_max);
    engine.drop_prop(joined);
    engine.drop_prop(excluded_flag);
    engine.drop_prop(undecided);
    outcome?;
    Ok(MisResult {
        in_set: states.into_iter().map(|s| s == IN_SET).collect(),
        rounds,
    })
}

/// Checks MIS validity against the graph: independence (no two members
/// adjacent, self-loops ignored) and maximality (every non-member has a
/// member neighbor). Shared by tests.
pub fn validate_mis(g: &pgxd_graph::Graph, in_set: &[bool]) -> Result<(), String> {
    for (s, _, d) in g.out_csr().iter_edges() {
        if s != d && in_set[s as usize] && in_set[d as usize] {
            return Err(format!("members {s} and {d} are adjacent"));
        }
    }
    for v in 0..g.num_nodes() as u32 {
        if in_set[v as usize] {
            continue;
        }
        let covered = g
            .out_neighbors(v)
            .iter()
            .chain(g.in_neighbors(v))
            .any(|&t| t != v && in_set[t as usize]);
        // A vertex whose only neighbors are itself (self loops) must join.
        let has_real_neighbor = g
            .out_neighbors(v)
            .iter()
            .chain(g.in_neighbors(v))
            .any(|&t| t != v);
        if !covered && has_real_neighbor {
            return Err(format!("non-member {v} has no member neighbor"));
        }
        if !has_real_neighbor && !in_set[v as usize] {
            return Err(format!("isolated vertex {v} must be a member"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgxd::BuildEngine;
    use pgxd_graph::generate;

    fn engine(machines: usize, g: &pgxd_graph::Graph) -> Engine {
        Engine::builder()
            .machines(machines)
            .ghost_threshold(Some(32))
            .engine(g)
            .unwrap()
    }

    #[test]
    fn mis_on_ring_is_valid() {
        let g = generate::ring(20);
        let mut e = engine(3, &g);
        let r = try_mis(&mut e).unwrap();
        validate_mis(&g, &r.in_set).unwrap();
        let members = r.in_set.iter().filter(|&&x| x).count();
        // A 20-ring MIS has between ceil(20/3)=7 and 10 members.
        assert!((7..=10).contains(&members), "{members} members");
    }

    #[test]
    fn mis_on_complete_graph_is_single_vertex() {
        let g = generate::complete(8);
        let mut e = engine(2, &g);
        let r = try_mis(&mut e).unwrap();
        validate_mis(&g, &r.in_set).unwrap();
        assert_eq!(r.in_set.iter().filter(|&&x| x).count(), 1);
    }

    #[test]
    fn mis_on_edgeless_graph_is_everything() {
        let g = pgxd_graph::builder::graph_from_edges(9, vec![]);
        let mut e = engine(3, &g);
        let r = try_mis(&mut e).unwrap();
        assert!(r.in_set.iter().all(|&x| x));
        assert_eq!(r.rounds, 1);
    }

    #[test]
    fn mis_valid_on_skewed_rmat() {
        let g = generate::rmat(8, 5, generate::RmatParams::skewed(), 77);
        let mut e = engine(4, &g);
        let r = try_mis(&mut e).unwrap();
        validate_mis(&g, &r.in_set).unwrap();
        assert!(r.rounds <= 40, "Luby should converge quickly: {}", r.rounds);
    }

    #[test]
    fn mis_deterministic_across_machine_counts() {
        let g = generate::rmat(7, 4, generate::RmatParams::mild(), 78);
        let mut e1 = engine(1, &g);
        let a = try_mis(&mut e1).unwrap();
        let mut e4 = engine(4, &g);
        let b = try_mis(&mut e4).unwrap();
        assert_eq!(a.in_set, b.in_set, "priorities are deterministic");
    }

    #[test]
    fn star_mis_is_all_spokes_or_hub() {
        let g = generate::star(12);
        let mut e = engine(2, &g);
        let r = try_mis(&mut e).unwrap();
        validate_mis(&g, &r.in_set).unwrap();
        let members = r.in_set.iter().filter(|&&x| x).count();
        assert!(members == 1 || members == 12);
    }
}
