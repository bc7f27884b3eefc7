//! End-to-end integration: full algorithm pipelines on the distributed
//! engine validated against the sequential references, across crates.

use pgxd::{BuildEngine, Engine};
use pgxd_algorithms as algos;
use pgxd_baselines::seq;
use pgxd_graph::generate::{self, RmatParams};

fn engine(machines: usize, g: &pgxd_graph::Graph) -> Engine {
    Engine::builder()
        .machines(machines)
        .workers(2)
        .copiers(1)
        .ghost_threshold(Some(64))
        .engine(g)
        .unwrap()
}

#[test]
fn pagerank_matches_sequential_reference() {
    let g = generate::rmat(9, 6, RmatParams::skewed(), 1001);
    let reference = seq::pagerank(&g, 0.85, 12);
    let mut e = engine(3, &g);
    let got = algos::try_pagerank_pull(&mut e, 0.85, 12, 0.0).unwrap();
    for (r, x) in reference.iter().zip(&got.scores) {
        assert!((r - x).abs() < 1e-9, "{r} vs {x}");
    }
}

#[test]
fn wcc_matches_sequential_reference() {
    let g = generate::rmat(9, 3, RmatParams::skewed(), 1002);
    let reference = seq::wcc(&g);
    let mut e = engine(4, &g);
    let got = algos::try_wcc(&mut e).unwrap();
    assert_eq!(got.component, reference);
}

#[test]
fn sssp_matches_sequential_reference() {
    let g = generate::rmat(8, 5, RmatParams::mild(), 1003).with_uniform_weights(1.0, 9.0, 11);
    let reference = seq::sssp(&g, 3);
    let mut e = engine(3, &g);
    let got = algos::try_sssp(&mut e, 3).unwrap();
    for (r, x) in reference.iter().zip(&got.dist) {
        assert!(
            (r - x).abs() < 1e-9 || (r.is_infinite() && x.is_infinite()),
            "{r} vs {x}"
        );
    }
}

#[test]
fn hopdist_matches_sequential_reference() {
    let g = generate::rmat(9, 4, RmatParams::skewed(), 1004);
    let reference = seq::bfs(&g, 0);
    let mut e = engine(4, &g);
    let got = algos::try_hopdist(&mut e, 0).unwrap();
    assert_eq!(got.hops, reference);
}

#[test]
fn eigenvector_matches_sequential_reference() {
    let g = generate::rmat(8, 5, RmatParams::mild(), 1005);
    let reference = seq::eigenvector(&g, 10);
    let mut e = engine(2, &g);
    let got = algos::try_eigenvector(&mut e, 10, 0.0).unwrap();
    for (r, x) in reference.iter().zip(&got.centrality) {
        assert!((r - x).abs() < 1e-9);
    }
}

#[test]
fn kcore_matches_sequential_reference() {
    let g = generate::rmat(8, 4, RmatParams::skewed(), 1006);
    let (rk, rc) = seq::kcore(&g);
    let mut e = engine(3, &g);
    let got = algos::try_kcore(&mut e, i64::MAX).unwrap();
    assert_eq!(got.max_core, rk);
    assert_eq!(got.core, rc);
}

#[test]
fn whole_suite_chains_on_one_engine() {
    // The §4.2 application model: many algorithms over one loaded graph,
    // creating and dropping temporary properties as they go.
    let g = generate::rmat(8, 6, RmatParams::skewed(), 1007).with_uniform_weights(1.0, 4.0, 5);
    let mut e = engine(3, &g);
    let pr = algos::try_pagerank_pull(&mut e, 0.85, 5, 0.0).unwrap();
    let prp = algos::try_pagerank_push(&mut e, 0.85, 5, 0.0).unwrap();
    let apr = algos::try_pagerank_approx(&mut e, 0.85, 1e-7, 200).unwrap();
    let comps = algos::try_wcc(&mut e).unwrap();
    let dists = algos::try_sssp(&mut e, 0).unwrap();
    let hops = algos::try_hopdist(&mut e, 0).unwrap();
    let ev = algos::try_eigenvector(&mut e, 5, 0.0).unwrap();
    let kc = algos::try_kcore(&mut e, i64::MAX).unwrap();

    // Spot-check consistency between them.
    for (a, b) in pr.scores.iter().zip(&prp.scores) {
        assert!((a - b).abs() < 1e-9, "pull vs push");
    }
    assert!(apr.iterations > 0);
    assert_eq!(comps.component.len(), g.num_nodes());
    // Reachable via weighted edges ⇔ reachable via hops.
    for (d, h) in dists.dist.iter().zip(&hops.hops) {
        assert_eq!(d.is_finite(), *h != i64::MAX);
    }
    assert_eq!(ev.centrality.len(), g.num_nodes());
    assert!(kc.max_core >= 1);
    // After dropping its temporaries, the engine serves fresh jobs.
    let pr2 = algos::try_pagerank_pull(&mut e, 0.85, 5, 0.0).unwrap();
    for (a, b) in pr.scores.iter().zip(&pr2.scores) {
        assert!((a - b).abs() < 1e-12, "engine state leaked between runs");
    }
}

#[test]
fn comparator_engines_agree_with_pgx() {
    use pgxd_baselines::programs::{self, Comparator};
    let g = generate::rmat(8, 4, RmatParams::skewed(), 1008);
    let mut e = engine(2, &g);
    let pgx = algos::try_wcc(&mut e).unwrap().component;
    let gas = programs::wcc(Comparator::Gas, &g, 2);
    let flow = programs::wcc(Comparator::Dataflow, &g, 2);
    assert_eq!(pgx, gas);
    assert_eq!(pgx, flow);
}

#[test]
fn graph_io_to_engine_roundtrip() {
    // Text file -> graph -> binary file -> graph -> engine -> algorithm.
    let g = generate::rmat(7, 4, RmatParams::mild(), 1009);
    let dir = std::env::temp_dir().join("pgxd-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let text = dir.join("g.txt");
    let bin = dir.join("g.bin");
    pgxd_graph::io::write_text_edge_list(&g, std::fs::File::create(&text).unwrap()).unwrap();
    let g1 = pgxd_graph::io::load_path(&text).unwrap();
    pgxd_graph::io::write_binary(&g1, std::fs::File::create(&bin).unwrap()).unwrap();
    let g2 = pgxd_graph::io::load_path(&bin).unwrap();
    // The text format cannot represent trailing isolated vertices, so node
    // counts may shrink; the edge structure must survive both formats.
    assert_eq!(g.out_csr().col_idx(), g2.out_csr().col_idx());
    assert_eq!(g.num_edges(), g2.num_edges());
    let mut e = engine(2, &g2);
    let got = algos::try_wcc(&mut e).unwrap();
    assert_eq!(got.component, seq::wcc(&g2));
    let _ = std::fs::remove_file(text);
    let _ = std::fs::remove_file(bin);
}
