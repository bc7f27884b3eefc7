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
//! * under an injected lossy plan (3% envelope drops above the
//!   transport) the cluster still converges to the same answers and the
//!   allgathered retransmit telemetry is **nonzero** — PR 2's
//!   ack/retransmit machinery demonstrably runs over real sockets.
//!
//! The `pgxd-node` binary is located next to the running `repro` binary
//! (both are `pgxd-bench` bins) or via `$PGXD_NODE_BIN`.

use crate::datasets::Scale;
use crate::report::Table;
use pgxd::BuildEngine;
use pgxd_algorithms as algos;
use pgxd_graph::generate;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Ranks in the spawned cluster (the paper's minimum interesting case:
/// every job crosses a real socket).
const MACHINES: usize = 2;
/// PageRank score tolerance vs the in-memory run. The fold order is
/// identical (rank-ordered gather), so in practice the bits match; the
/// acceptance bound is the reassociation floor.
const TOL: f64 = 1e-12;

struct GraphSpec {
    /// `--graph` argument understood by `pgxd-node`.
    spec: String,
    iters: usize,
}

impl GraphSpec {
    fn pick(scale: Scale, quick: bool) -> GraphSpec {
        match (scale, quick) {
            (Scale::Full, false) => GraphSpec {
                spec: "rmat:9:8:3017".into(),
                iters: 8,
            },
            _ => GraphSpec {
                spec: "rmat:7:4:3017".into(),
                iters: 5,
            },
        }
    }

    fn build(&self) -> pgxd_graph::Graph {
        let p: Vec<&str> = self.spec.split(':').collect();
        generate::rmat(
            p[1].parse().unwrap(),
            p[2].parse().unwrap(),
            generate::RmatParams::skewed(),
            p[3].parse().unwrap(),
        )
    }
}

/// One rank's parsed `--out` file.
struct NodeResult {
    retransmits_total: u64,
    pagerank: Vec<f64>,
    wcc: Vec<u32>,
    hopdist: Vec<i64>,
}

fn node_bin() -> PathBuf {
    if let Some(p) = std::env::var_os("PGXD_NODE_BIN") {
        return PathBuf::from(p);
    }
    let me = std::env::current_exe().expect("current_exe");
    let sibling = me.with_file_name("pgxd-node");
    assert!(
        sibling.exists(),
        "pgxd-node not found at {} — build it first (`cargo build -p pgxd-bench --bins`) \
         or point $PGXD_NODE_BIN at it",
        sibling.display()
    );
    sibling
}

fn spawn_rank(
    bin: &PathBuf,
    rank: usize,
    coord: &str,
    out: &PathBuf,
    g: &GraphSpec,
    drop_per_mille: u16,
) -> Child {
    let mut cmd = Command::new(bin);
    cmd.arg("--rank")
        .arg(rank.to_string())
        .arg("--machines")
        .arg(MACHINES.to_string())
        .arg("--coord")
        .arg(coord)
        .arg("--out")
        .arg(out)
        .arg("--graph")
        .arg(&g.spec)
        .arg("--iters")
        .arg(g.iters.to_string());
    if drop_per_mille > 0 {
        cmd.arg("--drop-per-mille").arg(drop_per_mille.to_string());
    }
    // Rank 0's stdout carries the `coord=` announcement; the others only
    // print their final status line, which nobody needs to parse.
    cmd.stdout(if rank == 0 {
        Stdio::piped()
    } else {
        Stdio::null()
    });
    cmd.stderr(Stdio::inherit());
    cmd.spawn()
        .unwrap_or_else(|e| panic!("spawn pgxd-node rank {rank}: {e}"))
}

/// Waits for every child within `deadline`, killing the whole cluster on
/// the first failure or timeout so a wedged rank cannot hang the gate.
fn wait_all(mut children: Vec<Child>, deadline: Duration) {
    let t0 = Instant::now();
    let mut done = vec![false; children.len()];
    while done.iter().any(|d| !d) {
        for (rank, child) in children.iter_mut().enumerate() {
            if done[rank] {
                continue;
            }
            match child.try_wait().expect("try_wait") {
                Some(status) if status.success() => done[rank] = true,
                Some(status) => {
                    for c in children.iter_mut() {
                        c.kill().ok();
                    }
                    panic!("pgxd-node rank {rank} failed: {status}");
                }
                None => {}
            }
        }
        if t0.elapsed() > deadline {
            for c in children.iter_mut() {
                c.kill().ok();
            }
            panic!("pgxd-node cluster did not finish within {deadline:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn parse_out(path: &PathBuf) -> NodeResult {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let field = |key: &str| -> &str {
        text.lines()
            .find_map(|l| l.strip_prefix(key).and_then(|l| l.strip_prefix('=')))
            .unwrap_or_else(|| panic!("{} lacks '{key}='", path.display()))
    };
    NodeResult {
        retransmits_total: field("retransmits_total").parse().unwrap(),
        pagerank: field("pagerank")
            .split(',')
            .map(|h| f64::from_bits(u64::from_str_radix(h, 16).unwrap()))
            .collect(),
        wcc: field("wcc")
            .split(',')
            .map(|s| s.parse().unwrap())
            .collect(),
        hopdist: field("hopdist")
            .split(',')
            .map(|s| s.parse().unwrap())
            .collect(),
    }
}

/// Runs one `MACHINES`-process cluster and returns the parsed per-rank
/// results (rank-indexed).
fn run_cluster(g: &GraphSpec, drop_per_mille: u16, tag: &str) -> Vec<NodeResult> {
    let bin = node_bin();
    let dir = std::env::temp_dir().join(format!("pgxd-wire-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create wire tmp dir");
    let outs: Vec<PathBuf> = (0..MACHINES)
        .map(|r| dir.join(format!("rank{r}.txt")))
        .collect();

    let mut rank0 = spawn_rank(&bin, 0, "127.0.0.1:0", &outs[0], g, drop_per_mille);
    // The ephemeral coordinator port is announced on rank 0's stdout.
    let mut reader = BufReader::new(rank0.stdout.take().expect("rank 0 stdout"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read coord line");
    let coord = line
        .trim()
        .strip_prefix("coord=")
        .unwrap_or_else(|| panic!("rank 0 announced '{}' instead of coord=ADDR", line.trim()))
        .to_string();

    let mut children = vec![rank0];
    for (rank, out) in outs.iter().enumerate().skip(1) {
        children.push(spawn_rank(&bin, rank, &coord, out, g, drop_per_mille));
    }
    wait_all(children, Duration::from_secs(120));
    // Drain whatever rank 0 printed after the announcement.
    let mut rest = String::new();
    let _ = std::io::Read::read_to_string(&mut reader, &mut rest);

    let results: Vec<NodeResult> = outs.iter().map(parse_out).collect();
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

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

struct Reference {
    scores: Vec<f64>,
    wcc: Vec<u32>,
    hops: Vec<i64>,
}

/// The single-process in-memory run every TCP result is diffed against:
/// same graph, same machine count, same driver program, default backend.
fn reference(g: &GraphSpec) -> Reference {
    let graph = g.build();
    let mut e = pgxd::Engine::builder()
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
    let g = GraphSpec::pick(scale, quick);
    eprintln!("[wire] graph {} — in-memory reference run", g.spec);
    let reference = reference(&g);

    eprintln!("[wire] spawning {MACHINES}-process TCP cluster (clean wire)");
    let clean = run_cluster(&g, 0, "clean");
    let (clean_delta, clean_bits, clean_rtx) = check_run("clean", &clean, &reference);

    eprintln!("[wire] spawning {MACHINES}-process TCP cluster (3% envelope drops)");
    let lossy = run_cluster(&g, 30, "lossy");
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
        "tcp lossy (30‰ drop)",
        vec![
            Some(lossy_delta),
            Some(lossy_bits as u8 as f64),
            Some(lossy_rtx as f64),
        ],
    );
    t
}
