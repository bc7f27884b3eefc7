//! `repro wire`: the real-cluster acceptance check.
//!
//! Spawns `pgxd-node` **OS processes** — one per rank — that bootstrap a
//! TCP cluster on localhost and run the SPMD driver program (PageRank
//! pull, WCC, Hop Dist), then checks the pluggable-transport contract:
//!
//! * every rank writes the *same* result vectors (driver gathers are
//!   rank-ordered collectives, so the SPMD model makes results globally
//!   replicated);
//! * the multi-process TCP cluster agrees with a single-process
//!   in-memory run to ≤ 1e-12 on PageRank scores and **bit-identically**
//!   on the integer properties (WCC labels, hop distances) — same graph,
//!   same partitions, same reduce fold order, different wire;
//! * under an injected lossy plan (15% envelope drops above the
//!   transport) the cluster still converges to the same answers and the
//!   allgathered retransmit telemetry is **nonzero** — PR 2's
//!   ack/retransmit machinery demonstrably runs over real sockets.

use super::ranks::{bits, read_out, spawn_cluster, wait_all, GraphSpec};
use crate::datasets::Scale;
use crate::report::Table;
use pgxd::BuildEngine;
use pgxd_algorithms as algos;
use std::path::PathBuf;
use std::time::Duration;

/// Ranks in the spawned cluster (the paper's minimum interesting case:
/// every job crosses a real socket).
const MACHINES: usize = 2;
/// Envelope drops (‰) of the lossy run. The quick driver program sends
/// only a few dozen reliable envelopes — a phase ends on its termination
/// wave, whose frames are unsequenced — so the rate must be high enough
/// that a run with no reliable drop, hence no retransmit to show, is
/// vanishingly rare.
const LOSSY_DROP_PER_MILLE: u16 = 150;
/// PageRank score tolerance vs the in-memory run. The fold order is
/// identical (rank-ordered gather), so in practice the bits match; the
/// acceptance bound is the reassociation floor.
const TOL: f64 = 1e-12;

/// One rank's parsed `--out` file.
struct NodeResult {
    retransmits_total: u64,
    pagerank: Vec<f64>,
    wcc: Vec<u32>,
    hopdist: Vec<i64>,
}

/// Runs one `MACHINES`-process cluster and returns the parsed per-rank
/// results (rank-indexed).
fn run_cluster(g: &GraphSpec, drop_per_mille: u16, tag: &str) -> Vec<NodeResult> {
    let dir = std::env::temp_dir().join(format!("pgxd-wire-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create wire tmp dir");
    let outs: Vec<PathBuf> = (0..MACHINES)
        .map(|r| dir.join(format!("rank{r}.txt")))
        .collect();
    let mut extra_args = Vec::new();
    if drop_per_mille > 0 {
        extra_args.extend(["--drop-per-mille".into(), drop_per_mille.to_string()]);
    }

    let (children, rank0_stdout) = spawn_cluster(&outs, g, &extra_args);
    wait_all(children, &[], Duration::from_secs(120));
    drop(rank0_stdout);

    let results = outs
        .iter()
        .map(|out| {
            let out = read_out(out);
            NodeResult {
                retransmits_total: out.num("retransmits_total"),
                pagerank: out.f64s("pagerank"),
                wcc: out.list("wcc"),
                hopdist: out.list("hopdist"),
            }
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    results
}

/// Checks one cluster run against the in-memory reference; returns
/// (max |Δ| on PageRank, bit-identical?, total retransmits).
fn check_run(name: &str, results: &[NodeResult], reference: &Reference) -> (f64, bool, u64) {
    for (rank, r) in results.iter().enumerate() {
        assert_eq!(
            r.pagerank.len(),
            reference.scores.len(),
            "{name}: rank {rank} gathered {} scores, expected {}",
            r.pagerank.len(),
            reference.scores.len()
        );
        // SPMD replication: every rank must hold the coordinator's bits.
        assert_eq!(
            bits(&r.pagerank),
            bits(&results[0].pagerank),
            "{name}: rank {rank} disagrees with rank 0 on PageRank"
        );
        assert_eq!(r.wcc, results[0].wcc, "{name}: rank {rank} WCC mismatch");
        assert_eq!(
            r.hopdist, results[0].hopdist,
            "{name}: rank {rank} hopdist mismatch"
        );
    }
    let r0 = &results[0];
    let max_delta = r0
        .pagerank
        .iter()
        .zip(&reference.scores)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(
        max_delta <= TOL,
        "{name}: TCP PageRank diverges from in-memory by {max_delta:e} (> {TOL:e})"
    );
    assert_eq!(
        r0.wcc, reference.wcc,
        "{name}: WCC labels must be bit-identical across backends"
    );
    assert_eq!(
        r0.hopdist, reference.hops,
        "{name}: hop distances must be bit-identical across backends"
    );
    let bit_identical = bits(&r0.pagerank) == bits(&reference.scores);
    (max_delta, bit_identical, r0.retransmits_total)
}

struct Reference {
    scores: Vec<f64>,
    wcc: Vec<u32>,
    hops: Vec<i64>,
}

/// The single-process in-memory run every TCP result is diffed against:
/// same graph, same machine count, same preset as `pgxd-node` (so the same
/// ghost set), same driver program, default backend.
fn reference(g: &GraphSpec) -> Reference {
    let graph = g.build();
    let mut e = pgxd::Config::builder()
        .machines(MACHINES)
        .workers(2)
        .engine(&graph)
        .unwrap();
    let pr = algos::try_pagerank_pull(&mut e, 0.85, g.iters, 0.0).unwrap();
    let wcc = algos::try_wcc(&mut e).unwrap();
    let hops = algos::try_hopdist(&mut e, 0).unwrap();
    Reference {
        scores: pr.scores,
        wcc: wcc.component,
        hops: hops.hops,
    }
}

pub fn run_experiment(scale: Scale, quick: bool) -> Table {
    let g = GraphSpec::pick(scale, quick, 5);
    eprintln!("[wire] graph {} — in-memory reference run", g.spec);
    let reference = reference(&g);

    eprintln!("[wire] spawning {MACHINES}-process TCP cluster (clean wire)");
    let clean = run_cluster(&g, 0, "clean");
    let (clean_delta, clean_bits, clean_rtx) = check_run("clean", &clean, &reference);

    eprintln!(
        "[wire] spawning {MACHINES}-process TCP cluster ({LOSSY_DROP_PER_MILLE}‰ envelope drops)"
    );
    let lossy = run_cluster(&g, LOSSY_DROP_PER_MILLE, "lossy");
    let (lossy_delta, lossy_bits, lossy_rtx) = check_run("lossy", &lossy, &reference);
    assert!(
        lossy_rtx > 0,
        "lossy run reported zero retransmits — the injected drop plan \
         never exercised the reliability machinery"
    );

    let mut t = Table::new(
        &format!(
            "wire — {MACHINES}-process TCP cluster vs in-memory ({})",
            g.spec
        ),
        vec![
            "max|Δ| pagerank".into(),
            "bit-identical".into(),
            "retransmits".into(),
        ],
        "Δ vs single-process in-memory run; bit-identical counts all three algorithms",
    );
    t.push_row(
        "tcp clean",
        vec![
            Some(clean_delta),
            Some(clean_bits as u8 as f64),
            Some(clean_rtx as f64),
        ],
    );
    t.push_row(
        &format!("tcp lossy ({LOSSY_DROP_PER_MILLE}‰ drop)"),
        vec![
            Some(lossy_delta),
            Some(lossy_bits as u8 as f64),
            Some(lossy_rtx as f64),
        ],
    );
    t
}
