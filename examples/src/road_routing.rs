//! Road-network routing: weighted single-source shortest paths on a grid
//! (a planar, low-degree graph — the opposite regime from social graphs:
//! no hubs, so ghost nodes buy nothing, while edge partitioning still
//! balances the load).
//!
//! ```text
//! cargo run -p pgxd-examples --release --bin road_routing
//! ```

use pgxd::{BuildEngine, Config};
use pgxd_algorithms::{try_hopdist, try_sssp};
use pgxd_graph::generate::grid;

const ROWS: usize = 96;
const COLS: usize = 96;

fn main() {
    // A city grid with congestion-weighted street segments.
    let graph = grid(ROWS, COLS).with_uniform_weights(1.0, 5.0, 0x60AD);
    println!(
        "road network: {} intersections, {} directed segments",
        graph.num_nodes(),
        graph.num_edges()
    );

    let mut engine = Config::builder()
        .machines(4)
        .workers(1)
        .copiers(1)
        .ghost_threshold(Some(64)) // no hubs in a grid: selects nothing
        .engine(&graph)
        .expect("engine");
    assert_eq!(
        engine.cluster().ghosts().len(),
        0,
        "planar grids have no high-degree vertices to ghost"
    );

    // Travel times from the depot at the north-west corner.
    let depot = 0u32;
    let times = try_sssp(&mut engine, depot).unwrap();
    println!(
        "Bellman-Ford settled after {} relaxation rounds",
        times.iterations
    );

    // Hop distance (number of intersections) for comparison.
    let hops = try_hopdist(&mut engine, depot).unwrap();
    println!("BFS frontier swept {} levels", hops.iterations);

    // The far corner: compare shortest travel time vs fewest turns.
    let far = ROWS * COLS - 1;
    println!(
        "depot -> far corner: travel time {:.1}, hops {} (minimum possible {})",
        times.dist[far],
        hops.hops[far],
        ROWS + COLS - 2
    );
    assert_eq!(hops.hops[far] as usize, ROWS + COLS - 2);

    // Reachability audit: everything downhill of the depot is reachable.
    let unreachable = times.dist.iter().filter(|d| d.is_infinite()).count();
    println!("{unreachable} intersections unreachable from the depot");

    // Average detour factor of weighted routes over hop-optimal routes.
    let mut detour = 0.0f64;
    let mut counted = 0usize;
    for v in 0..graph.num_nodes() {
        if times.dist[v].is_finite() && hops.hops[v] > 0 {
            detour += times.dist[v] / hops.hops[v] as f64;
            counted += 1;
        }
    }
    println!(
        "average per-hop travel time: {:.2} (weights were 1..5)",
        detour / counted as f64
    );
}
