//! Configuration-matrix integration tests: every combination of the
//! engine's load-balancing and ghosting features must produce identical
//! results — the features are performance knobs, never semantic ones.

use pgxd::{BuildEngine, ChunkingMode, Config, Engine, PartitioningMode, StatsSnapshot};
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

/// Hubs are ghosts by default: on a skewed graph the derived threshold
/// replicates them, which puts strictly fewer read entries and bytes on the
/// wire than ghosts off, and the scores stay within f64 reassociation noise
/// (a hub's sum folds its ghosted and remote terms in another order).
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
/// is bit-deterministic: ghosting the hub must not change a single bit.
#[test]
fn ghosts_are_bit_identical_on_a_star() {
    let g = generate::star(2048);
    let (plain_scores, _, _) = pull_on_two_machines(&g, false);
    let (ghost_scores, _, ghosts) = pull_on_two_machines(&g, true);
    assert_eq!(ghosts, 1, "the hub, and only the hub");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&plain_scores), bits(&ghost_scores));
}

/// On one machine every read is local: the preset selects no ghost.
#[test]
fn one_machine_engine_has_no_ghosts() {
    let g = generate::rmat(11, 16, RmatParams::skewed(), 2008);
    let e = Config::builder().machines(1).engine(&g).unwrap();
    assert!(e.cluster().ghosts().is_empty());
}
