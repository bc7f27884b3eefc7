//! Property-based integration tests: the distributed engine must agree
//! with the sequential references on *arbitrary* graphs and
//! configurations, and core invariants must hold under random workloads.

use pgxd::{BuildEngine, Dir, EdgeCtx, EdgeTask, Engine, JobSpec, NodeCtx, Prop, ReduceOp};
use pgxd_algorithms as algos;
use pgxd_baselines::seq;
use pgxd_graph::builder::graph_from_edges;
use pgxd_graph::{Graph, NodeId};
use proptest::prelude::*;

/// An arbitrary small digraph: up to `n` nodes, up to `m` edges.
fn arb_graph(n: usize, m: usize) -> impl Strategy<Value = Graph> {
    (
        2..n,
        prop::collection::vec((0..n as u32, 0..n as u32), 0..m),
    )
        .prop_map(|(nodes, edges)| {
            let edges: Vec<(NodeId, NodeId)> = edges
                .into_iter()
                .map(|(a, b)| (a % nodes as u32, b % nodes as u32))
                .collect();
            graph_from_edges(nodes, edges)
        })
}

fn engine(machines: usize, ghosts: Option<usize>, g: &Graph) -> Engine {
    Engine::builder()
        .machines(machines)
        .workers(1)
        .copiers(1)
        .buffer_bytes(256)
        .chunk_edges(64)
        .ghost_threshold(ghosts)
        .engine(g)
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn wcc_agrees_with_reference(g in arb_graph(40, 120), machines in 1usize..5) {
        let reference = seq::wcc(&g);
        let mut e = engine(machines, Some(4), &g);
        let got = algos::try_wcc(&mut e).unwrap();
        prop_assert_eq!(got.component, reference);
    }

    #[test]
    fn bfs_agrees_with_reference(g in arb_graph(40, 120), machines in 1usize..5, root in 0u32..10) {
        let root = root % g.num_nodes() as u32;
        let reference = seq::bfs(&g, root);
        let mut e = engine(machines, None, &g);
        let got = algos::try_hopdist(&mut e, root).unwrap();
        prop_assert_eq!(got.hops, reference);
    }

    #[test]
    fn pagerank_pull_push_and_reference_agree(g in arb_graph(32, 100), machines in 1usize..4) {
        let reference = seq::pagerank(&g, 0.85, 4);
        let mut e1 = engine(machines, Some(2), &g);
        let pull = algos::try_pagerank_pull(&mut e1, 0.85, 4, 0.0).unwrap();
        let mut e2 = engine(machines, None, &g);
        let push = algos::try_pagerank_push(&mut e2, 0.85, 4, 0.0).unwrap();
        for ((r, a), b) in reference.iter().zip(&pull.scores).zip(&push.scores) {
            prop_assert!((r - a).abs() < 1e-9, "pull {} vs {}", a, r);
            prop_assert!((r - b).abs() < 1e-9, "push {} vs {}", b, r);
        }
    }

    #[test]
    fn kcore_agrees_with_reference(g in arb_graph(24, 80), machines in 1usize..4) {
        let (rk, rc) = seq::kcore(&g);
        let mut e = engine(machines, Some(3), &g);
        let got = algos::try_kcore(&mut e, i64::MAX).unwrap();
        prop_assert_eq!(got.max_core, rk);
        prop_assert_eq!(got.core, rc);
    }

    /// Conservation law: pushing `Sum(1)` along every edge must total the
    /// edge count, no matter how edges cross machines or ghosts.
    #[test]
    fn edge_count_conservation(g in arb_graph(40, 150), machines in 1usize..5,
                               ghosts in prop::option::of(0usize..6)) {
        struct CountOne { acc: Prop<i64>, active: Prop<bool> }
        impl EdgeTask for CountOne {
            fn filter(&self, ctx: &mut NodeCtx<'_, '_>) -> bool { ctx.get(self.active) }
            fn run(&self, ctx: &mut EdgeCtx<'_, '_>) {
                ctx.write_nbr(self.acc, ReduceOp::Sum, 1i64);
            }
        }
        let mut e = engine(machines, ghosts, &g);
        let acc = e.add_prop("acc", 0i64);
        let active = e.add_prop("active", true);
        e.try_run_edge_job(
            Dir::Out,
            &JobSpec::new().reduce(acc, ReduceOp::Sum),
            CountOne { acc, active },
        )
        .unwrap();
        let total: i64 = e.reduce(acc, ReduceOp::Sum);
        prop_assert_eq!(total as usize, g.num_edges());
        // Per-node: the accumulated value must equal the in-degree.
        let per_node = e.gather::<i64>(acc);
        for (v, &x) in per_node.iter().enumerate() {
            prop_assert_eq!(x as usize, g.in_degree(v as u32));
        }
    }

    /// Pull-side mirror of the conservation law: reading a constant from
    /// every out-neighbor and summing locally counts each node's
    /// out-degree.
    #[test]
    fn pull_reads_count_out_degree(g in arb_graph(32, 100), machines in 1usize..4) {
        struct PullOne { one: Prop<i64>, acc: Prop<i64> }
        impl EdgeTask for PullOne {
            fn run(&self, ctx: &mut EdgeCtx<'_, '_>) {
                ctx.read_nbr(self.one);
            }
            fn read_done(&self, ctx: &mut pgxd::ReadDoneCtx<'_, '_>) {
                let v: i64 = ctx.value();
                let cur: i64 = ctx.get(self.acc);
                ctx.set(self.acc, cur + v);
            }
        }
        let mut e = engine(machines, Some(2), &g);
        let one = e.add_prop("one", 1i64);
        let acc = e.add_prop("acc2", 0i64);
        e.try_run_edge_job(Dir::Out, &JobSpec::new().read(one), PullOne { one, acc })
            .unwrap();
        let per_node = e.gather::<i64>(acc);
        for (v, &x) in per_node.iter().enumerate() {
            prop_assert_eq!(x as usize, g.out_degree(v as u32));
        }
    }

    /// Min-reductions are order-independent: pushing random values with
    /// `Min` must yield the per-node minimum regardless of machine count.
    #[test]
    fn min_reduction_is_deterministic(g in arb_graph(24, 80),
                                      seed in 0u64..1000,
                                      machines in 1usize..4) {
        struct PushVal { val: Prop<i64>, dst: Prop<i64> }
        impl EdgeTask for PushVal {
            fn run(&self, ctx: &mut EdgeCtx<'_, '_>) {
                let v = ctx.get(self.val);
                ctx.write_nbr(self.dst, ReduceOp::Min, v);
            }
        }
        // Deterministic pseudo-random node values.
        let vals: Vec<i64> = (0..g.num_nodes())
            .map(|v| ((v as u64).wrapping_mul(0x9E3779B9).wrapping_add(seed) % 1000) as i64)
            .collect();
        let mut e = engine(machines, Some(3), &g);
        let val = e.add_prop("val", 0i64);
        let dst = e.add_prop("dst", i64::MAX);
        for (v, &x) in vals.iter().enumerate() {
            e.set(val, v as u32, x);
        }
        e.try_run_edge_job(
            Dir::Out,
            &JobSpec::new().read(val).reduce(dst, ReduceOp::Min),
            PushVal { val, dst },
        )
        .unwrap();
        let got = e.gather::<i64>(dst);
        for v in 0..g.num_nodes() as u32 {
            let expect = g
                .in_neighbors(v)
                .iter()
                .map(|&t| vals[t as usize])
                .min()
                .unwrap_or(i64::MAX);
            prop_assert_eq!(got[v as usize], expect, "node {}", v);
        }
    }
}
