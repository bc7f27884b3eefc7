//! Adversarial and degenerate inputs across the whole stack.

use pgxd::{BuildEngine, Engine};
use pgxd_algorithms as algos;
use pgxd_baselines::seq;
use pgxd_graph::builder::graph_from_edges;
use pgxd_graph::generate;

fn engine(machines: usize, g: &pgxd_graph::Graph) -> Engine {
    Engine::builder()
        .machines(machines)
        .workers(1)
        .copiers(1)
        .ghost_threshold(Some(8))
        .engine(g)
        .unwrap()
}

#[test]
fn edgeless_graph() {
    let g = graph_from_edges(10, vec![]);
    let mut e = engine(3, &g);
    let w = algos::try_wcc(&mut e).unwrap();
    assert_eq!(w.num_components, 10);
    let pr = algos::try_pagerank_push(&mut e, 0.85, 3, 0.0).unwrap();
    for &s in &pr.scores {
        assert!((s - 0.15 / 10.0).abs() < 1e-12);
    }
    let kc = algos::try_kcore(&mut e, 8).unwrap();
    assert_eq!(kc.max_core, 0);
}

#[test]
fn two_node_graph_many_machines() {
    let g = graph_from_edges(2, vec![(0, 1)]);
    let mut e = engine(4, &g); // more machines than meaningful partitions
    let h = algos::try_hopdist(&mut e, 0).unwrap();
    assert_eq!(h.hops, vec![0, 1]);
}

#[test]
fn self_loops_survive_the_stack() {
    let g = graph_from_edges(4, vec![(0, 0), (0, 1), (1, 1), (1, 2), (3, 3)]);
    let mut e = engine(2, &g);
    let w = algos::try_wcc(&mut e).unwrap();
    assert_eq!(w.component, seq::wcc(&g));
    let h = algos::try_hopdist(&mut e, 0).unwrap();
    assert_eq!(h.hops, seq::bfs(&g, 0));
}

#[test]
fn parallel_edges_count_twice() {
    let g = graph_from_edges(3, vec![(0, 1), (0, 1), (1, 2)]);
    let mut e = engine(2, &g);
    let pr = algos::try_pagerank_push(&mut e, 0.85, 5, 0.0).unwrap();
    let reference = seq::pagerank(&g, 0.85, 5);
    for (a, b) in pr.scores.iter().zip(&reference) {
        assert!((a - b).abs() < 1e-12);
    }
}

#[test]
fn single_giant_hub() {
    // One vertex with edges to everyone: the worst case for vertex
    // partitioning, the best case for ghosting.
    let n = 500usize;
    let mut edges = Vec::new();
    for v in 1..n as u32 {
        edges.push((0u32, v));
        edges.push((v, 0u32));
    }
    let g = graph_from_edges(n, edges);
    let mut e = engine(4, &g);
    assert!(!e.cluster().ghosts().is_empty(), "the hub must be ghosted");
    let w = algos::try_wcc(&mut e).unwrap();
    assert_eq!(w.num_components, 1);
    let (rk, rc) = seq::kcore(&g);
    let kc = algos::try_kcore(&mut e, i64::MAX).unwrap();
    assert_eq!(kc.max_core, rk);
    assert_eq!(kc.core, rc);
}

#[test]
fn star_traffic_with_and_without_ghosts() {
    // Quantitative Figure-6a style check at test scale: ghosting the hub
    // must reduce remote write entries to (almost) nothing on a star.
    let n = 400usize;
    let mut edges = Vec::new();
    for v in 1..n as u32 {
        edges.push((v, 0u32)); // everyone pushes into the hub
    }
    let g = graph_from_edges(n, edges);

    let mut no_ghost = Engine::builder()
        .machines(4)
        .ghost_threshold(None)
        .engine(&g)
        .unwrap();
    let _ = algos::try_pagerank_push(&mut no_ghost, 0.85, 2, 0.0).unwrap();
    let without = no_ghost.cluster().total_stats().write_entries;

    let mut ghosted = Engine::builder()
        .machines(4)
        .ghost_threshold(Some(10))
        .engine(&g)
        .unwrap();
    let _ = algos::try_pagerank_push(&mut ghosted, 0.85, 2, 0.0).unwrap();
    let with = ghosted.cluster().total_stats().write_entries;

    assert!(
        with * 10 < without,
        "ghosting the hub should kill ~all remote writes: {with} vs {without}"
    );
}

#[test]
fn long_chain_needs_many_iterations() {
    // A path forces WCC/BFS through hundreds of supersteps — the
    // overhead-bound regime (like KCore in the paper).
    let n = 300usize;
    let g = generate::path(n);
    let mut e = engine(3, &g);
    let h = algos::try_hopdist(&mut e, 0).unwrap();
    assert_eq!(h.iterations, n, "one frontier level per path vertex");
    assert_eq!(h.hops[n - 1], (n - 1) as i64);
}

#[test]
fn disconnected_islands_across_machines() {
    // Many tiny components, each crossing partition boundaries only
    // sometimes.
    let mut edges = Vec::new();
    let islands = 40u32;
    for i in 0..islands {
        let base = i * 3;
        edges.push((base, base + 1));
        edges.push((base + 1, base + 2));
    }
    let g = graph_from_edges((islands * 3) as usize, edges);
    let mut e = engine(4, &g);
    let w = algos::try_wcc(&mut e).unwrap();
    assert_eq!(w.num_components, islands as usize);
}

#[test]
fn zero_weight_edges() {
    let mut b = pgxd_graph::GraphBuilder::new();
    b.add_weighted_edge(0, 1, 0.0)
        .add_weighted_edge(1, 2, 0.0)
        .add_weighted_edge(0, 2, 5.0);
    let g = b.build();
    let mut e = engine(2, &g);
    let d = algos::try_sssp(&mut e, 0).unwrap();
    assert_eq!(d.dist, vec![0.0, 0.0, 0.0]);
}

#[test]
fn engine_survives_many_tiny_jobs() {
    // KCore on a path: hundreds of near-empty parallel steps (the
    // framework-overhead stress of §5.3.1).
    let g = generate::path(64);
    let mut e = engine(3, &g);
    let kc = algos::try_kcore(&mut e, i64::MAX).unwrap();
    let (rk, rc) = seq::kcore(&g);
    assert_eq!(kc.max_core, rk);
    assert_eq!(kc.core, rc);
    assert!(kc.iterations > 10);
}

#[test]
fn dist_barrier_stress() {
    let g = generate::ring(32);
    let mut e = engine(4, &g);
    for _ in 0..100 {
        e.dist_barrier_roundtrip();
    }
}

/// Runs `job` on a thread of its own and fails the test if it has not
/// returned within 20 s, instead of hanging the suite.
fn under_watchdog<R: Send + 'static>(job: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = std::sync::mpsc::channel();
    let thread = std::thread::spawn(move || {
        let _ = tx.send(job());
    });
    let result = rx
        .recv_timeout(std::time::Duration::from_secs(20))
        .expect("the job hung (or its thread panicked) instead of failing");
    thread.join().expect("the job's thread returned its result");
    result
}

fn assert_task_panicked(err: pgxd::JobError) {
    let pgxd::JobError::Protocol(msg) = err else {
        panic!("expected a protocol error, got {err:?}");
    };
    assert!(msg.contains("task panicked: boom at vertex 3"), "{msg}");
}

/// A task that panics on one vertex fails the job on every machine — the
/// worker's barrier is still reached — and the abort is sticky.
#[test]
fn panicking_node_task_fails_the_job() {
    under_watchdog(|| {
        let g = generate::ring(64);
        let mut e = engine(2, &g);
        let boom = pgxd::tasks::on_node(|ctx| {
            if ctx.node() == 3 {
                panic!("boom at vertex 3");
            }
        });
        let err = e.try_run_node_job(&pgxd::JobSpec::new(), boom).unwrap_err();
        assert_task_panicked(err);
        let again = e.try_run_node_job(&pgxd::JobSpec::new(), pgxd::tasks::on_node(|_| {}));
        assert_task_panicked(again.unwrap_err());
    });
}

#[test]
fn panicking_edge_task_fails_the_job() {
    under_watchdog(|| {
        let g = generate::ring(64);
        let mut e = engine(2, &g);
        let boom = pgxd::tasks::on_edge(|ctx| {
            if ctx.node() == 3 {
                panic!("boom at vertex {}", ctx.node());
            }
        });
        let err = e
            .try_run_edge_job(pgxd::Dir::Out, &pgxd::JobSpec::new(), boom)
            .unwrap_err();
        assert_task_panicked(err);
    });
}

#[test]
fn rmi_from_algorithm_context() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    // A remote method that counts invocations per machine.
    let g = generate::ring(16);
    let mut e = engine(2, &g);
    let hits = Arc::new(AtomicU64::new(0));
    let hits2 = hits.clone();
    let id = e.register_rmi(Arc::new(move |_m, args: &[u8]| {
        hits2.fetch_add(1, Ordering::SeqCst);
        args.to_vec() // echo
    }));
    assert_eq!(id, 0);

    struct Caller {
        id: u16,
        echoed: pgxd::Prop<i64>,
    }
    impl pgxd::NodeTask for Caller {
        fn run(&self, ctx: &mut pgxd::NodeCtx<'_, '_>) {
            if ctx.node() == 0 {
                ctx.rmi(1, self.id, &7i64.to_le_bytes(), 0);
            }
        }
        fn read_done(&self, ctx: &mut pgxd::ReadDoneCtx<'_, '_>) {
            let v: i64 = ctx.value();
            ctx.set(self.echoed, v);
        }
    }
    let echoed = e.add_prop("echoed", 0i64);
    e.try_run_node_job(&pgxd::JobSpec::new(), Caller { id, echoed })
        .unwrap();
    assert_eq!(hits.load(Ordering::SeqCst), 1);
    assert_eq!(e.get::<i64>(echoed, 0), 7);
}

#[test]
#[ignore = "soak test: run manually with --ignored (several minutes)"]
fn soak_large_graph_all_algorithms() {
    let g = generate::rmat(14, 16, generate::RmatParams::skewed(), 3011)
        .with_uniform_weights(1.0, 10.0, 3);
    let mut e = Engine::builder()
        .machines(4)
        .workers(2)
        .copiers(2)
        .ghost_threshold(Some(512))
        .engine(&g)
        .unwrap();
    let pr = algos::try_pagerank_pull(&mut e, 0.85, 10, 0.0).unwrap();
    assert!(pr.scores.iter().all(|s| s.is_finite()));
    let w = algos::try_wcc(&mut e).unwrap();
    assert_eq!(w.component, seq::wcc(&g));
    let d = algos::try_sssp(&mut e, 0).unwrap();
    let rd = seq::sssp(&g, 0);
    for (a, b) in d.dist.iter().zip(&rd) {
        assert!((a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite()));
    }
    let kc = algos::try_kcore(&mut e, i64::MAX).unwrap();
    assert_eq!(kc.max_core, seq::kcore(&g).0);
}
