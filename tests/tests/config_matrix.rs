//! Configuration-matrix integration tests: every combination of the
//! engine's load-balancing and ghosting features must produce identical
//! results — the features are performance knobs, never semantic ones.

use pgxd::tasks::{on_edge, on_node};
use pgxd::{
    BuildEngine, CancelToken, ChunkingMode, Config, Dir, EdgeTask, Engine, FaultPlan, Fold,
    JobError, JobReport, JobSpec, NodeCtx, PartitioningMode, Prop, ReduceOp, Reduction,
    StatsSnapshot, TelemetryConfig,
};
use pgxd_algorithms as algos;
use pgxd_baselines::seq;
use pgxd_graph::generate::{self, RmatParams};
use pgxd_graph::Graph;

fn build(
    g: &Graph,
    machines: usize,
    workers: usize,
    part: PartitioningMode,
    chunk: ChunkingMode,
    ghosts: Option<usize>,
) -> Engine {
    Engine::builder()
        .machines(machines)
        .workers(workers)
        .copiers(1)
        .partitioning(part)
        .chunking(chunk)
        .ghost_threshold(ghosts)
        .chunk_edges(512) // small chunks exercise the queue
        .buffer_bytes(1 << 10) // tiny buffers exercise sealing
        .engine(g)
        .unwrap()
}

#[test]
fn pagerank_identical_across_all_configurations() {
    let g = generate::rmat(8, 6, RmatParams::skewed(), 2001);
    let reference = seq::pagerank(&g, 0.85, 6);
    for machines in [1usize, 3] {
        for workers in [1usize, 2] {
            for part in [PartitioningMode::Vertex, PartitioningMode::Edge] {
                for chunk in [ChunkingMode::Node, ChunkingMode::Edge] {
                    for ghosts in [None, Some(32)] {
                        let mut e = build(&g, machines, workers, part, chunk, ghosts);
                        let got = algos::try_pagerank_push(&mut e, 0.85, 6, 0.0).unwrap();
                        for (r, x) in reference.iter().zip(&got.scores) {
                            assert!(
                                (r - x).abs() < 1e-9,
                                "m={machines} w={workers} {part:?} {chunk:?} \
                                 ghosts={ghosts:?}: {r} vs {x}"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn wcc_identical_across_key_configurations() {
    let g = generate::rmat(8, 4, RmatParams::skewed(), 2002);
    let reference = seq::wcc(&g);
    for (machines, part, ghosts) in [
        (1, PartitioningMode::Edge, None),
        (2, PartitioningMode::Vertex, None),
        (3, PartitioningMode::Edge, Some(16)),
        (4, PartitioningMode::Edge, Some(0)),
    ] {
        let mut e = build(&g, machines, 2, part, ChunkingMode::Edge, ghosts);
        let got = algos::try_wcc(&mut e).unwrap();
        assert_eq!(got.component, reference, "m={machines} {part:?} {ghosts:?}");
    }
}

/// The built-in node tasks that run a chunk at a time compute what they
/// computed per vertex whatever the chunk boundaries: `chunk_edges(1)`
/// makes every node chunk one vertex. Hop distance and WCC are integers and
/// bit-identical everywhere; PageRank and eigenvector sum floats in an
/// order only a single worker fixes.
#[test]
fn chunk_kernels_are_chunk_invariant() {
    let g = generate::rmat(8, 6, RmatParams::skewed(), 2003);
    for machines in [1usize, 3] {
        for workers in [1usize, 2] {
            let run = |chunk_edges: Option<usize>| {
                let mut builder = Engine::builder()
                    .machines(machines)
                    .workers(workers)
                    .ghost_threshold(Some(16));
                if let Some(edges) = chunk_edges {
                    builder = builder.chunk_edges(edges);
                }
                let mut e = builder.engine(&g).unwrap();
                let hops = algos::try_hopdist(&mut e, 0).unwrap().hops;
                let comp = algos::try_wcc(&mut e).unwrap().component;
                let pr = algos::try_pagerank_pull(&mut e, 0.85, 10, 0.0).unwrap();
                let ev = algos::try_eigenvector(&mut e, 10, 0.0).unwrap();
                (hops, comp, [pr.scores, ev.centrality])
            };
            let (preset, single) = (run(None), run(Some(1)));
            let at = format!("m={machines} w={workers}");
            assert_eq!(preset.0, single.0, "hops, {at}");
            assert_eq!(preset.1, single.1, "wcc, {at}");
            for (a, b) in preset.2.iter().zip(&single.2) {
                if machines == 1 && workers == 1 {
                    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(a), bits(b), "{at}");
                } else {
                    for (x, y) in a.iter().zip(b) {
                        assert!((x - y).abs() < 1e-12, "{at}: {x} vs {y}");
                    }
                }
            }
        }
    }
}

#[test]
fn more_machines_than_meaningful_partitions() {
    // 8 machines for a 30-node graph: several partitions own almost
    // nothing; everything must still work.
    let g = generate::rmat(5, 3, RmatParams::mild(), 2003);
    let reference = seq::wcc(&g);
    let mut e = build(
        &g,
        8,
        1,
        PartitioningMode::Edge,
        ChunkingMode::Edge,
        Some(4),
    );
    let got = algos::try_wcc(&mut e).unwrap();
    assert_eq!(got.component, reference);
}

#[test]
fn ghost_everything_extreme() {
    // Threshold 0 ghosts every vertex with any edge: the entire graph is
    // replicated, edges never cross machines, results unchanged.
    let g = generate::rmat(7, 4, RmatParams::skewed(), 2004);
    let reference = seq::pagerank(&g, 0.85, 4);
    let mut e = build(
        &g,
        3,
        1,
        PartitioningMode::Edge,
        ChunkingMode::Edge,
        Some(0),
    );
    assert!(e.cluster().ghosts().len() > g.num_nodes() / 2);
    let got = algos::try_pagerank_push(&mut e, 0.85, 4, 0.0).unwrap();
    for (r, x) in reference.iter().zip(&got.scores) {
        assert!((r - x).abs() < 1e-9);
    }
    // With every edge local, remote write traffic must be zero.
    let stats = e.cluster().total_stats();
    assert_eq!(
        stats.write_entries, 0,
        "ghosting all nodes kills remote writes"
    );
}

#[test]
fn tiny_buffers_force_many_messages_same_result() {
    let g = generate::rmat(7, 6, RmatParams::skewed(), 2005);
    let reference = seq::pagerank(&g, 0.85, 4);
    // 64-byte buffers: every handful of entries seals a message.
    let mut e = Engine::builder()
        .machines(4)
        .workers(1)
        .copiers(2)
        .buffer_bytes(64)
        .ghost_threshold(None)
        .engine(&g)
        .unwrap();
    let got = algos::try_pagerank_pull(&mut e, 0.85, 4, 0.0).unwrap();
    for (r, x) in reference.iter().zip(&got.scores) {
        assert!((r - x).abs() < 1e-9);
    }
    let stats = e.cluster().total_stats();
    assert!(
        stats.msgs_sent > 300,
        "tiny buffers should generate many messages, got {}",
        stats.msgs_sent
    );
}

#[test]
fn back_pressure_pool_exhaustion_is_survivable() {
    let g = generate::rmat(7, 6, RmatParams::skewed(), 2006);
    let reference = seq::pagerank(&g, 0.85, 3);
    let mut config = pgxd::Config::test(3);
    config.buffer_bytes = 128;
    config.send_buffers_per_machine = 2; // absurdly small quota
    let mut e = pgxd::EngineBuilder::from_config(config).build(&g).unwrap();
    let got = algos::try_pagerank_pull(&mut e, 0.85, 3, 0.0).unwrap();
    for (r, x) in reference.iter().zip(&got.scores) {
        assert!((r - x).abs() < 1e-9);
    }
    let stats = e.cluster().total_stats();
    assert!(
        stats.pool_exhausted > 0 || stats.msgs_sent < 100,
        "expected back-pressure events with a 2-buffer quota"
    );
}

#[test]
fn strict_distributed_mode_gives_same_results() {
    // With strict_distributed, every phase ends on the termination wave
    // (reports, probes and releases through the fabric) instead of the
    // shared pending counter.
    let g = generate::rmat(7, 5, RmatParams::skewed(), 2007);
    let reference = seq::pagerank(&g, 0.85, 4);
    let mut e = Engine::builder()
        .machines(3)
        .strict_distributed(true)
        .engine(&g)
        .unwrap();
    let got = algos::try_pagerank_pull(&mut e, 0.85, 4, 0.0).unwrap();
    for (r, x) in reference.iter().zip(&got.scores) {
        assert!((r - x).abs() < 1e-9);
    }
    let wcc = algos::try_wcc(&mut e).unwrap();
    assert_eq!(wcc.component, seq::wcc(&g));
}

/// PageRank-pull on 2 machines under the benchmark preset, whose ghost
/// threshold follows the machine count — or with ghosts off. Returns the
/// scores, the wire counters and the ghost count.
fn pull_on_two_machines(g: &Graph, ghosts: bool) -> (Vec<f64>, StatsSnapshot, usize) {
    let mut builder = Config::builder().machines(2).workers(2).copiers(1);
    if !ghosts {
        builder = builder.ghost_threshold(None);
    }
    let mut e = builder.engine(g).unwrap();
    let scores = algos::try_pagerank_pull(&mut e, 0.85, 10, 0.0)
        .unwrap()
        .scores;
    (
        scores,
        e.cluster().total_stats(),
        e.cluster().ghosts().len(),
    )
}

/// Mirrors are on by default: on a skewed graph the derived rule puts
/// strictly fewer read entries and bytes on the wire than ghosts off, and
/// the scores stay within f64 reassociation noise (a sum folds its mirrored
/// terms in edge order, where ghosts off folds remote ones on arrival).
#[test]
fn ghosts_cut_wire_traffic_not_results() {
    let g = generate::rmat(11, 16, RmatParams::skewed(), 2008);
    let (plain_scores, plain, none) = pull_on_two_machines(&g, false);
    let (ghost_scores, ghosted, ghosts) = pull_on_two_machines(&g, true);
    assert_eq!(none, 0);
    assert!(ghosts > 0, "the derived threshold ghosts R-MAT hubs");
    assert_eq!(plain.combined_read_hits + ghosted.combined_read_hits, 0);
    assert!(
        ghosted.read_entries < plain.read_entries,
        "read entries: {} ghosted vs {} plain",
        ghosted.read_entries,
        plain.read_entries
    );
    assert!(
        ghosted.bytes_sent < plain.bytes_sent,
        "wire bytes: {} ghosted vs {} plain",
        ghosted.bytes_sent,
        plain.bytes_sent
    );
    for (a, b) in plain_scores.iter().zip(&ghost_scores) {
        assert!((a - b).abs() <= 1e-12, "{a} vs {b}");
    }
}

/// On a star every spoke has one in-neighbor (the hub) and all spokes stay
/// symmetric, so per-node sums are order-independent and a correct engine
/// is bit-deterministic: mirroring the hub and the spokes must not change
/// a single bit.
#[test]
fn ghosts_are_bit_identical_on_a_star() {
    let g = generate::star(2048);
    let (plain_scores, _, _) = pull_on_two_machines(&g, false);
    let (ghost_scores, _, ghosts) = pull_on_two_machines(&g, true);
    assert_eq!(ghosts, g.num_nodes(), "every vertex is a candidate");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&plain_scores), bits(&ghost_scores));
}

/// A reduce-only push job: every edge adds its source's id + 1 into the
/// target's `p`, so a partial that is lost, doubled or seeded with
/// anything but zero changes the sum.
fn push_source_ids(e: &mut Engine, p: Prop<i64>) -> JobReport {
    let spec = JobSpec::new().reduce(p, ReduceOp::Sum);
    let task = on_edge(move |ctx| ctx.write_nbr(p, ReduceOp::Sum, ctx.node() as i64 + 1));
    e.try_run_edge_job(Dir::Out, &spec, task).unwrap()
}

/// `build` on 3 machines over an R-MAT graph whose hubs a threshold of 8
/// ghosts (`None` for ghosts off).
fn ghosted(g: &Graph, workers: usize, ghosts: Option<usize>) -> Engine {
    build(
        g,
        3,
        workers,
        PartitioningMode::Edge,
        ChunkingMode::Edge,
        ghosts,
    )
}

/// Pulls the sum of every vertex's in-neighbors' `x` into `acc` (reset to
/// zero first), reading `x` through the ghosts.
fn pull_sum(
    e: &mut Engine,
    x: Prop<i64>,
    acc: Prop<i64>,
    cancel: &CancelToken,
) -> Result<JobReport, JobError> {
    e.fill(acc, 0);
    let task = Fold::new(x, acc, ReduceOp::Sum);
    e.try_run_edge_job_with(Dir::In, &JobSpec::new().read(x), task, cancel)
}

/// Both ghost synchronizations ride inside the main phase: on a cluster
/// that does ghost its hubs, a push job that only reduces, a pull job that
/// reads and a node job that reads are each one phase.
#[test]
fn ghosts_reduce_only_push_job_is_one_phase() {
    let g = generate::rmat(8, 6, RmatParams::skewed(), 2009);
    let mut e = Engine::builder()
        .machines(3)
        .ghost_threshold(Some(8))
        .telemetry(TelemetryConfig { enabled: true })
        .engine(&g)
        .unwrap();
    let p = e.add_prop("p", 0i64);
    let acc = e.add_prop("acc", 0i64);
    let labels = |e: &Engine| e.cluster().phase_labels().len();
    let before = labels(&e);
    assert!(push_source_ids(&mut e, p).traffic.ghost_entries > 0);
    assert_eq!(&e.cluster().phase_labels()[before..], ["main"]);
    let before = labels(&e);
    let pull = pull_sum(&mut e, p, acc, &CancelToken::never()).unwrap();
    assert!(pull.traffic.ghost_entries > 0);
    assert_eq!(&e.cluster().phase_labels()[before..], ["main"]);
    let before = labels(&e);
    let read = JobSpec::new().read(p);
    let node = e.try_run_node_job(&read, on_node(|_| {})).unwrap();
    assert!(node.traffic.ghost_entries > 0);
    assert_eq!(&e.cluster().phase_labels()[before..], ["main"]);
}

/// `ROUNDS` rounds on 3 machines × 2 workers: a node job gives every vertex
/// a new `x`, then `pull_sum` reads it through the ghosts. Returns each
/// round's sums and the final counters.
fn fresh_rounds(
    g: &Graph,
    ghosts: Option<usize>,
    plan: FaultPlan,
) -> (Vec<Vec<i64>>, StatsSnapshot) {
    const ROUNDS: i64 = 20;
    let mut e = Engine::builder()
        .machines(3)
        .workers(2)
        .copiers(1)
        .ghost_threshold(ghosts)
        .fault(plan)
        .engine(g)
        .unwrap();
    let x = e.add_prop("x", 0i64);
    let acc = e.add_prop("acc", 0i64);
    let mut sums = Vec::new();
    for round in 1..=ROUNDS {
        let renew = on_node(move |ctx| {
            let v = ctx.node() as i64;
            ctx.set(x, (v + 1) * round % 1009);
        });
        e.try_run_node_job(&JobSpec::new(), renew).unwrap();
        pull_sum(&mut e, x, acc, &CancelToken::never()).unwrap();
        sums.push(e.gather::<i64>(acc));
    }
    (sums, e.cluster().total_stats())
}

/// A reader starts its chunks only once its machine's ghost slots hold
/// this job's values: a value read one round stale changes an i64 sum,
/// which is order-independent, so every round matches ghosts off bit for
/// bit — with no fault, and with envelopes dropped, duplicated and
/// reordered (a duplicate must not count towards the wait).
#[test]
fn ghosts_are_fresh_in_every_round() {
    let g = generate::rmat(9, 8, RmatParams::skewed(), 2012);
    let (plain, _) = fresh_rounds(&g, None, FaultPlan::none());
    let (clean, stats) = fresh_rounds(&g, Some(8), FaultPlan::none());
    assert!(stats.ghost_entries > 0);
    assert!(plain == clean, "a clean ghosted run read a stale ghost");
    let (lossy, stats) = fresh_rounds(&g, Some(8), FaultPlan::lossy(0x6057, 20, 50, 50));
    assert!(stats.retransmits > 0, "2% drops must force retransmits");
    assert!(stats.dup_suppressed > 0, "5% duplicates must be suppressed");
    assert!(plain == lossy, "a lossy ghosted run read a stale ghost");
}

/// A pull whose filter fires its own job's token.
struct FireThenPull {
    fire: CancelToken,
    pull: Fold,
}
impl EdgeTask for FireThenPull {
    fn filter(&self, _: &mut NodeCtx<'_, '_>) -> bool {
        self.fire.cancel();
        true
    }
    fn reduction(&self) -> Option<Reduction> {
        Some(self.pull.into())
    }
}

/// A reading job whose task fires its own token still pushes its ghost
/// values (peers wait on them), returns `Cancelled` without hanging, and
/// leaves the engine fit for the next job.
#[test]
fn ghosts_cancelled_reading_job_leaves_the_next_job_correct() {
    let g = generate::rmat(8, 6, RmatParams::skewed(), 2013);
    let run = |ghosts| {
        let mut e = ghosted(&g, 2, ghosts);
        let x = e.add_prop("x", 0i64);
        let acc = e.add_prop("acc", 0i64);
        e.try_run_node_job(
            &JobSpec::new(),
            on_node(move |ctx| {
                let v = ctx.node() as i64;
                ctx.set(x, v * v % 97);
            }),
        )
        .unwrap();
        let token = CancelToken::for_job(9);
        let task = FireThenPull {
            fire: token.clone(),
            pull: Fold::new(x, acc, ReduceOp::Sum),
        };
        let err = e
            .try_run_edge_job_with(Dir::In, &JobSpec::new().read(x), task, &token)
            .unwrap_err();
        assert!(matches!(err, JobError::Cancelled { job: 9 }), "{err}");
        pull_sum(&mut e, x, acc, &CancelToken::never()).unwrap();
        (e.gather::<i64>(acc), e.cluster().ghosts().len())
    };
    let ((plain, none), (ghosted, ghosts)) = (run(None), run(Some(8)));
    assert!(none == 0 && ghosts > 0);
    assert!(
        plain == ghosted,
        "the job after a cancelled one read stale ghosts"
    );
}

/// A job that reads `p` leaves owner values in `p`'s ghost slots; a Sum
/// pushed into `p` next must start its partials from zero, not from those
/// values — bit for bit what the same jobs give with ghosts off.
#[test]
fn ghosts_reduced_slots_start_at_bottom_after_a_read() {
    let g = generate::rmat(8, 6, RmatParams::skewed(), 2010);
    let run = |ghosts| {
        let mut e = ghosted(&g, 1, ghosts);
        let p = e.add_prop("p", 7i64);
        e.try_run_node_job(&JobSpec::new().read(p), on_node(|_| {}))
            .unwrap();
        push_source_ids(&mut e, p);
        (e.gather::<i64>(p), e.cluster().ghosts().len())
    };
    let ((plain, none), (ghosted, ghosts)) = (run(None), run(Some(8)));
    assert!(none == 0 && ghosts > 0);
    assert!(plain == ghosted, "ghost slots were not reset to bottom");
}

/// The cores of a machine combine before the machines do: a push job sends
/// one partial per (ghost, non-owner machine) whatever the worker count,
/// and the integer result does not move.
#[test]
fn ghosts_partials_are_per_machine_not_per_worker() {
    let g = generate::rmat(9, 8, RmatParams::skewed(), 2011);
    let run = |workers| {
        let mut e = ghosted(&g, workers, Some(8));
        let p = e.add_prop("p", 0i64);
        let entries = push_source_ids(&mut e, p).traffic.ghost_entries;
        (entries, e.gather::<i64>(p))
    };
    let (one, two) = (run(1), run(2));
    assert!(one.0 > 0);
    assert_eq!(one.0, two.0, "ghost entries at 1 vs 2 workers per machine");
    assert!(one.1 == two.1, "sums at 1 vs 2 workers per machine");
}

/// On one machine every vertex is owned: under either preset's `Some(0)`
/// every vertex is a candidate, yet the machine keeps no mirror slot and
/// no property column has a ghost cell.
#[test]
fn one_machine_engine_has_no_ghosts() {
    let g = generate::rmat(11, 16, RmatParams::skewed(), 2008);
    for preset in [Config::builder(), Engine::builder()] {
        let mut e = preset.machines(1).engine(&g).unwrap();
        assert!(!e.cluster().ghosts().is_empty(), "candidates");
        let pr = e.add_prop("pr", 0.0f64);
        let machine = e.cluster().machine(0);
        assert_eq!(machine.graph.mirrors().len(), 0, "mirror slots");
        assert_eq!(machine.props.len_ghost(), 0, "ghost cells");
        assert_eq!(machine.props.column(pr.id()).len_total(), g.num_nodes());
    }
}

/// Hop distance and WCC push through the workers' private ghost copies
/// (declared scatters): on 3 machines × 2 workers with hubs ghosted at
/// threshold 8, bit-identical to ghosts off.
#[test]
fn ghosts_scatter_jobs_are_bit_identical() {
    let g = generate::rmat(9, 8, RmatParams::skewed(), 2014);
    let root = (0..g.num_nodes() as u32)
        .max_by_key(|&v| g.out_degree(v))
        .unwrap();
    let run = |ghosts| {
        let mut e = ghosted(&g, 2, ghosts);
        let hops = algos::try_hopdist(&mut e, root).unwrap().hops;
        let wcc = algos::try_wcc(&mut e).unwrap().component;
        (hops, wcc, e.cluster().ghosts().len())
    };
    let ((hops, wcc, none), (ghost_hops, ghost_wcc, ghosts)) = (run(None), run(Some(8)));
    assert!(none == 0 && ghosts > 0);
    assert!(hops.iter().filter(|&&h| h != i64::MAX).count() > 100);
    assert_eq!(hops, ghost_hops, "hop distances");
    assert_eq!(wcc, ghost_wcc, "WCC labels");
}

/// A write to a ghosted neighbor that the job does not declare reduced —
/// or declares with another op — has no private copy to go to and is never
/// part of a partial: it goes to the owner, like a remote one.
#[test]
fn ghosts_undeclared_writes_reach_the_owner() {
    let g = generate::rmat(8, 8, RmatParams::skewed(), 2015);
    let want: Vec<i64> = (0..g.num_nodes() as u32)
        .map(|v| g.in_degree(v) as i64)
        .collect();
    for spec_op in [None, Some(ReduceOp::Max)] {
        let mut e = build(
            &g,
            2,
            2,
            PartitioningMode::Edge,
            ChunkingMode::Edge,
            Some(16),
        );
        assert!(!e.cluster().ghosts().is_empty());
        let d = e.add_prop("d", 0i64);
        let spec = spec_op.map_or(JobSpec::new(), |op| JobSpec::new().reduce(d, op));
        let task = on_edge(move |ctx| ctx.write_nbr(d, ReduceOp::Sum, 1i64));
        e.try_run_edge_job(Dir::Out, &spec, task).unwrap();
        assert_eq!(e.gather::<i64>(d), want, "declared {spec_op:?}");
    }
}

/// A read of a ghosted neighbor's property that the job does not declare
/// read gets the owner's value, not the ghost slot's stale one.
#[test]
fn ghosts_undeclared_reads_see_the_owner() {
    struct SumIn {
        x: Prop<i64>,
        acc: Prop<i64>,
    }
    impl EdgeTask for SumIn {
        fn run(&self, ctx: &mut pgxd::EdgeCtx<'_, '_>) {
            ctx.read_nbr(self.x);
        }
        fn read_done(&self, ctx: &mut pgxd::ReadDoneCtx<'_, '_>) {
            let (cur, got) = (ctx.get(self.acc), ctx.value::<i64>());
            ctx.set(self.acc, cur + got);
        }
    }
    let g = generate::rmat(8, 8, RmatParams::skewed(), 2016);
    let want: Vec<i64> = (0..g.num_nodes() as u32)
        .map(|v| g.in_neighbors(v).iter().map(|&u| u as i64 + 1).sum())
        .collect();
    let mut e = ghosted(&g, 2, Some(8));
    assert!(!e.cluster().ghosts().is_empty());
    let x = e.add_prop("x", 0i64);
    let acc = e.add_prop("acc", 0i64);
    for v in 0..g.num_nodes() as u32 {
        e.set(x, v, v as i64 + 1);
    }
    e.try_run_edge_job(Dir::In, &JobSpec::new(), SumIn { x, acc })
        .unwrap();
    assert_eq!(e.gather::<i64>(acc), want);
}
