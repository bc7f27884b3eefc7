//! Mirrors under the shipped ghost rule: every vertex is a candidate on two
//! machines or more, and a machine keeps a slot for each vertex it does not
//! own but shares an edge with.
//!
//! * The slots of every machine equal a census taken from the graph and
//!   the partitioning alone, and so do a pull's and a push's wire entries:
//!   no remote read or write, one sync entry per slot for a read property,
//!   one partial per touched slot for a reduced one.
//! * A pull folds every in-neighbour in edge order on its own worker, so
//!   PageRank-pull and eigenvector are bit-reproducible run to run and
//!   across backends.

use pgxd::{BuildEngine, Config, Dir, Engine, Fold, JobSpec, ReduceOp, Scatter};
use pgxd_algorithms as algos;
use pgxd_graph::{generate, Graph, NodeId};
use pgxd_runtime::config::ConfigBuilder;
use std::collections::BTreeSet;

fn rmat() -> Graph {
    generate::rmat(9, 6, generate::RmatParams::skewed(), 0x3117)
}

/// The benchmark preset at `machines` × 2 workers, ghost rule untouched.
fn shipped(machines: usize) -> ConfigBuilder {
    Config::builder().machines(machines).workers(2)
}

/// Per machine: the vertices it does not own that one of its vertices has
/// an edge to (`out`) or from (`inn`), ascending.
fn census(e: &Engine, g: &Graph, out: bool, inn: bool) -> Vec<Vec<NodeId>> {
    let part = e.cluster().partition();
    (0..e.num_machines() as u16)
        .map(|m| {
            let mut seen = BTreeSet::new();
            for v in part.start(m)..part.end(m) {
                let outs = g.out_neighbors(v).iter().filter(|_| out);
                let ins = g.in_neighbors(v).iter().filter(|_| inn);
                seen.extend(outs.chain(ins).filter(|&&u| part.owner(u) != m));
            }
            seen.into_iter().collect()
        })
        .collect()
}

#[test]
fn slots_and_wire_entries_match_the_census() {
    let g = rmat();
    for machines in [2, 3] {
        let mut e = shipped(machines).engine(&g).unwrap();
        let union = census(&e, &g, true, true);
        for (m, want) in union.iter().enumerate() {
            let mirrors = e.cluster().machine(m).graph.mirrors();
            let by_owner = (0..machines as u16).flat_map(|o| mirrors.from_owner(o));
            let got: Vec<NodeId> = by_owner.map(|&k| mirrors.node_at(k as usize)).collect();
            assert_eq!(&got, want, "machine {m} of {machines}: slots");
            assert_eq!(
                mirrors.len(),
                want.len(),
                "machine {m} of {machines}: slots"
            );
        }
        let slots: usize = union.iter().map(Vec::len).sum();

        let src = e.add_prop("src", 1.0f64);
        let dst = e.add_prop("dst", 0.0f64);
        let pull = Fold::new(src, dst, ReduceOp::Sum);
        let report = e.try_run_edge_job(Dir::In, &JobSpec::new(), pull).unwrap();
        let t = report.traffic;
        assert_eq!(t.read_entries, 0, "{machines} machines: pull reads");
        assert_eq!(
            t.ghost_entries, slots as u64,
            "{machines} machines: pull syncs"
        );
        let in_degrees: Vec<f64> = (0..g.num_nodes() as NodeId)
            .map(|v| g.in_degree(v) as f64)
            .collect();
        assert_eq!(e.gather(dst), in_degrees);

        let touched: usize = census(&e, &g, true, false).iter().map(Vec::len).sum();
        let push = Scatter::new(src, dst, ReduceOp::Sum);
        let report = e.try_run_edge_job(Dir::Out, &JobSpec::new(), push).unwrap();
        let t = report.traffic;
        assert_eq!(t.write_entries, 0, "{machines} machines: push writes");
        assert_eq!(
            t.ghost_entries, touched as u64,
            "{machines} machines: partials"
        );
        let doubled: Vec<f64> = in_degrees.iter().map(|d| 2.0 * d).collect();
        assert_eq!(e.gather(dst), doubled);
    }
}

/// PageRank-pull's and eigenvector's score bits.
fn scores(e: &mut Engine) -> (Vec<u64>, Vec<u64>) {
    let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect();
    let pr = algos::try_pagerank_pull(e, 0.85, 8, 0.0).unwrap().scores;
    let ev = algos::try_eigenvector(e, 8, 0.0).unwrap().centrality;
    (bits(pr), bits(ev))
}

#[test]
fn pulls_are_reproducible_to_the_bit() {
    let g = rmat();
    let runs: Vec<_> = (0..3)
        .map(|_| scores(&mut shipped(3).engine(&g).unwrap()))
        .collect();
    assert_eq!(runs[0], runs[1], "in-process runs 1 and 2");
    assert_eq!(runs[0], runs[2], "in-process runs 1 and 3");
    let ranks = pgxd::loopback_ranks(3, |rank| {
        let mut e = rank.engine(shipped(3), &g).unwrap();
        let out = scores(&mut e);
        e.cluster().node_barrier().unwrap();
        out
    });
    for (rank, got) in ranks.iter().enumerate() {
        assert_eq!(got, &runs[0], "rank {rank} of a loopback TCP cluster");
    }
}
