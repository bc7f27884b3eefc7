//! Quickstart: load a graph into a simulated PGX.D cluster and run
//! PageRank with the *data pulling* pattern.
//!
//! ```text
//! cargo run -p pgxd-examples --release --bin quickstart
//! ```

use pgxd::{BuildEngine, Config};
use pgxd_algorithms::try_pagerank_pull;
use pgxd_graph::generate::{rmat, RmatParams};

fn main() {
    // 1. A graph. Any edge list works (see pgxd_graph::io for files);
    //    here: a skewed RMAT graph, 4096 nodes / ~48k edges.
    let graph = rmat(12, 12, RmatParams::skewed(), 42);
    println!(
        "graph: {} nodes, {} edges",
        graph.num_nodes(),
        graph.num_edges()
    );

    // 2. An engine: 4 simulated machines, edge partitioning, ghost nodes
    //    for vertices with degree > 256 — all defaults of the paper's
    //    design, tunable through the builder.
    let mut engine = Config::builder()
        .machines(4)
        .workers(2)
        .copiers(1)
        .ghost_threshold(Some(256))
        .engine(&graph)
        .expect("engine construction");
    println!(
        "cluster: {} machines, {} ghost nodes selected",
        engine.num_machines(),
        engine.cluster().ghosts().len()
    );

    // 3. Run an algorithm from the suite.
    let result = try_pagerank_pull(&mut engine, 0.85, 100, 1e-10).unwrap();
    println!("pagerank converged after {} iterations", result.iterations);

    // 4. Inspect the result (driver-side sequential region).
    let mut order: Vec<usize> = (0..graph.num_nodes()).collect();
    order.sort_by(|&a, &b| result.scores[b].total_cmp(&result.scores[a]));
    println!("top 10 vertices by PageRank:");
    for &v in order.iter().take(10) {
        println!(
            "  v{v:<6} score {:.6}  (in-degree {})",
            result.scores[v],
            graph.in_degree(v as u32)
        );
    }

    // 5. Traffic accounting comes for free.
    let stats = engine.cluster().total_stats();
    println!(
        "traffic: {} messages, {:.2} MB payload, {} remote reads, {} local reads",
        stats.msgs_sent,
        stats.bytes_sent as f64 / 1e6,
        stats.read_entries,
        stats.local_reads
    );
}
