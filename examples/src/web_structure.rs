//! Web-graph structure analysis, including a *custom* PGX.D task — the
//! general task framework of §4.1, not just the packaged algorithms.
//!
//! Pipeline: eigenvector centrality → k-core decomposition → a custom
//! pull-pattern kernel that counts, per page, how many of its in-links
//! come from pages more authoritative than itself.
//!
//! ```text
//! cargo run -p pgxd-examples --release --bin web_structure
//! ```

use pgxd::{BuildEngine, Config, Dir, EdgeCtx, EdgeTask, JobSpec, Prop, ReadDoneCtx};
use pgxd_algorithms::{try_eigenvector, try_kcore};
use pgxd_graph::generate::{rmat, RmatParams};

/// Custom kernel: for each page, pull each in-neighbor's authority score
/// and count the in-links whose source outranks the page itself. A pure
/// *data pulling* pattern — each callback compares against local state,
/// no atomics, impossible to express on push-only frameworks without
/// flipping the edge direction by hand.
struct CountStrongerInlinks {
    authority: Prop<f64>,
    stronger: Prop<i64>,
}

impl EdgeTask for CountStrongerInlinks {
    fn run(&self, ctx: &mut EdgeCtx<'_, '_>) {
        ctx.read_nbr(self.authority);
    }
    fn read_done(&self, ctx: &mut ReadDoneCtx<'_, '_>) {
        let nbr_score: f64 = ctx.value();
        let own: f64 = ctx.get(self.authority);
        if nbr_score > own {
            let c: i64 = ctx.get(self.stronger);
            ctx.set(self.stronger, c + 1);
        }
    }
}

fn main() {
    // A web-crawl-like graph: mild skew, larger than the social example.
    let graph = rmat(13, 10, RmatParams::mild(), 0x3EB);
    println!(
        "web graph: {} pages, {} links",
        graph.num_nodes(),
        graph.num_edges()
    );

    let mut engine = Config::builder()
        .machines(4)
        .workers(2)
        .copiers(1)
        .ghost_threshold(Some(256))
        .engine(&graph)
        .expect("engine");

    // 1. Authority: eigenvector centrality (pull-based power iteration).
    let ev = try_eigenvector(&mut engine, 50, 1e-9).unwrap();
    println!("eigenvector centrality: {} iterations", ev.iterations);

    // 2. Cohesion: k-core decomposition.
    let cores = try_kcore(&mut engine, i64::MAX).unwrap();
    println!(
        "densest core: k = {} (peeling took {} parallel steps)",
        cores.max_core, cores.iterations
    );

    // 3. Custom kernel on the same engine: load authority into a property,
    //    then run the pull task.
    let authority = engine.add_prop("authority", 0.0f64);
    for (v, &score) in ev.centrality.iter().enumerate() {
        engine.set(authority, v as u32, score);
    }
    let stronger = engine.add_prop("stronger_inlinks", 0i64);
    engine
        .try_run_edge_job(
            Dir::In,
            &JobSpec::new().read(authority),
            CountStrongerInlinks {
                authority,
                stronger,
            },
        )
        .unwrap();
    let stronger_counts = engine.gather(stronger);

    // Report: the most "supported" pages — high-authority pages that are
    // nevertheless endorsed by even stronger ones.
    let mut order: Vec<usize> = (0..graph.num_nodes()).collect();
    order.sort_by(|&a, &b| {
        (
            stronger_counts[b],
            ev.centrality[b].total_cmp(&ev.centrality[a]),
        )
            .cmp(&(stronger_counts[a], std::cmp::Ordering::Equal))
    });
    println!("pages with the most endorsements from stronger pages:");
    for &v in order.iter().take(8) {
        println!(
            "  page v{v:<7} {} stronger in-links, authority {:.5}, core {}",
            stronger_counts[v], ev.centrality[v], cores.core[v]
        );
    }

    // Sanity: a page cannot have more stronger in-links than in-links.
    for (v, &count) in stronger_counts.iter().enumerate() {
        assert!(count as usize <= graph.in_degree(v as u32));
    }
    println!("invariant verified: stronger-inlinks <= in-degree for all pages");
}
