//! Social-network influence analysis — the workload class the paper's
//! introduction motivates (Twitter follower graph analysis).
//!
//! Pipeline on one engine: weakly connected components → approximate
//! PageRank (delta propagation, the fast variant GraphLab/GraphX ship) →
//! per-community top influencers.
//!
//! ```text
//! cargo run -p pgxd-examples --release --bin social_influence
//! ```

use pgxd::{BuildEngine, Config};
use pgxd_algorithms::{try_pagerank_approx, try_wcc};
use pgxd_graph::generate::{rmat, RmatParams};
use std::collections::HashMap;

fn main() {
    // A follower-style graph: heavy-tailed degree distribution.
    let graph = rmat(13, 14, RmatParams::skewed(), 0x50C1A1);
    let stats = pgxd_graph::stats::degree_stats(&graph);
    println!(
        "social graph: {} users, {} follow edges, max in-degree {}, top-1% holds {:.0}% of degree",
        graph.num_nodes(),
        graph.num_edges(),
        stats.max_in,
        stats.top1pct_share * 100.0
    );

    let mut engine = Config::builder()
        .machines(4)
        .workers(2)
        .copiers(1)
        .ghost_threshold(Some(512)) // replicate celebrity accounts
        .engine(&graph)
        .expect("engine");
    println!(
        "{} celebrity accounts ghosted across machines",
        engine.cluster().ghosts().len()
    );

    // Communities.
    let communities = try_wcc(&mut engine).unwrap();
    println!(
        "{} weakly connected communities found in {} iterations",
        communities.num_components, communities.iterations
    );

    // Influence scores (approximate PageRank: decreasing work per
    // iteration as accounts converge and deactivate).
    let influence = try_pagerank_approx(&mut engine, 0.85, 1e-8, 500).unwrap();
    println!(
        "approximate pagerank deactivated everyone after {} iterations",
        influence.iterations
    );

    // Per-community top influencer (driver-side post-processing).
    let mut best: HashMap<u32, (usize, f64)> = HashMap::new();
    for (v, (&comp, &score)) in communities
        .component
        .iter()
        .zip(&influence.scores)
        .enumerate()
    {
        let entry = best.entry(comp).or_insert((v, score));
        if score > entry.1 {
            *entry = (v, score);
        }
    }
    let mut ranked: Vec<(&u32, &(usize, f64))> = best.iter().collect();
    ranked.sort_by(|a, b| b.1 .1.total_cmp(&a.1 .1));
    println!("top influencers of the 5 most influential communities:");
    for (comp, (v, score)) in ranked.into_iter().take(5) {
        println!(
            "  community {comp:<8} user v{v:<7} influence {score:.6} ({} followers)",
            graph.in_degree(*v as u32)
        );
    }
}
