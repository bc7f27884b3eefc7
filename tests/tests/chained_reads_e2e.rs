//! Chained continuations under batched termination accounting.
//!
//! A worker counts the entries it buffers locally and adds them to the
//! cluster-wide count in batches. The dangerous moment is the tail of a
//! phase: every chunk is retired, and a `read_done` running off one of the
//! last responses issues further reads. If those were counted late, §3.2's
//! rule ("the task list is empty and there are no unfinished remote
//! requests") would hold for an instant and the phase would end with
//! continuations still owed. Here every response chains `DEPTH` more reads,
//! through 64-byte buffers (8 read entries each), on both backends.

use pgxd::{
    BuildEngine, Config, Dir, EdgeCtx, EdgeTask, Engine, JobSpec, NodeCtx, NodeTask, Prop,
    ReadDoneCtx,
};
use pgxd_graph::{generate, Graph};

const DEPTH: u64 = 3;

fn test_graph() -> Graph {
    generate::rmat(7, 4, generate::RmatParams::skewed(), 3023)
}

/// The vertex the continuation of `v` reads when `remaining` steps are
/// left: spread over both machines, different at every step.
fn chain_target(v: u64, remaining: u64, n: u64) -> u64 {
    (v * 7 + remaining * 13 + 1) % n
}

/// `val[v] = v`.
struct Init {
    val: Prop<i64>,
}
impl NodeTask for Init {
    fn run(&self, ctx: &mut NodeCtx<'_, '_>) {
        let v = ctx.node() as i64;
        ctx.set(self.val, v);
    }
}

/// Per in-edge: read the neighbor's `val`, then `DEPTH` more vertices one
/// after another, each read issued by the previous one's continuation.
struct Chain {
    val: Prop<i64>,
    sum: Prop<i64>,
    calls: Prop<i64>,
    n: u64,
}
impl EdgeTask for Chain {
    fn run(&self, ctx: &mut EdgeCtx<'_, '_>) {
        ctx.read_nbr_tagged(self.val, DEPTH);
    }
    fn read_done(&self, ctx: &mut ReadDoneCtx<'_, '_>) {
        let got: i64 = ctx.value();
        let sum = ctx.get(self.sum);
        ctx.set(self.sum, sum + got);
        let calls = ctx.get(self.calls);
        ctx.set(self.calls, calls + 1);
        let remaining = ctx.aux();
        if remaining > 0 {
            let next = chain_target(ctx.node() as u64, remaining, self.n);
            ctx.read_global(next as pgxd::NodeId, self.val, remaining - 1);
        }
    }
}

/// The SPMD driver: returns `(sum, calls)` gathered in global order.
fn driver(engine: &mut Engine) -> (Vec<i64>, Vec<i64>) {
    let n = engine.num_nodes() as u64;
    let val = engine.add_prop("val", 0i64);
    let sum = engine.add_prop("sum", 0i64);
    let calls = engine.add_prop("calls", 0i64);
    engine
        .try_run_node_job(&JobSpec::new(), Init { val })
        .unwrap();
    engine
        .try_run_edge_job(
            Dir::In,
            &JobSpec::new().read(val),
            Chain { val, sum, calls, n },
        )
        .unwrap();
    (engine.gather(sum), engine.gather(calls))
}

/// What every continuation having run exactly once adds up to.
fn expected(graph: &Graph) -> (Vec<i64>, Vec<i64>) {
    let n = graph.num_nodes() as u64;
    let mut sum = vec![0i64; n as usize];
    let mut calls = vec![0i64; n as usize];
    for v in 0..n {
        for &u in graph.in_neighbors(v as pgxd::NodeId) {
            sum[v as usize] += u as i64;
            calls[v as usize] += 1 + DEPTH as i64;
            for remaining in 1..=DEPTH {
                sum[v as usize] += chain_target(v, remaining, n) as i64;
            }
        }
    }
    (sum, calls)
}

fn small_buffers() -> pgxd_runtime::config::ConfigBuilder {
    Config::builder().machines(2).workers(1).buffer_bytes(64)
}

#[test]
fn every_chained_continuation_runs_in_memory() {
    let graph = test_graph();
    let mut engine = small_buffers().engine(&graph).unwrap();
    assert_eq!(driver(&mut engine), expected(&graph));
    // The chains crossed machines, in many small messages.
    let stats = engine.cluster().total_stats();
    assert!(stats.read_entries > 0 && stats.msgs_sent > 16);
}

#[test]
fn every_chained_continuation_runs_on_loopback_tcp() {
    let graph = test_graph();
    let want = expected(&graph);
    let ranks = pgxd::loopback_ranks(2, |rank| {
        let mut engine = rank.engine(small_buffers(), &graph).unwrap();
        let out = driver(&mut engine);
        engine.cluster().node_barrier().unwrap();
        out
    });
    assert_eq!(ranks, [want.clone(), want], "ranks 0 and 1");
}
