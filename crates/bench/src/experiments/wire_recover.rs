//! `repro wire-recover`: real-wire fault-tolerance acceptance.
//!
//! Two acceptance runs over a **3-process** `pgxd-node` TCP cluster
//! executing checkpointed resumable PageRank:
//!
//! * **Seeded wire faults, no kill**: every rank arms a `WireFaultPlan`
//!   (injected connection resets, mid-frame write stalls, one refused
//!   reconnect accept per rank) and the cluster must still converge
//!   within `1e-12` of a fault-free run — the reconnect machinery plus
//!   PR 2's sequencing/dedup guarantee exactly-once delivery across
//!   socket lives. (Not bit-identical: with 3 machines remote-read
//!   accumulation is arrival-order dependent, so even two clean runs
//!   differ in the last ULP — DESIGN.md §16.6.) The run must also
//!   report *nonzero* reconnect and injected-fault telemetry, proving
//!   the plan actually fired.
//!
//! * **SIGKILL mid-run** (Unix only): the orchestrator waits for every
//!   rank's pause marker (the cluster idles between iterations right
//!   after a collective checkpoint), SIGKILLs a non-coordinator rank,
//!   and the survivors must detect the death (crash watchdog or redial
//!   exhaustion), re-bootstrap as a 2-machine cluster at a pre-agreed
//!   recovery coordinator address, adopt the newest checkpoint, restore
//!   it degraded, and converge to scores within 1e-12 of the fault-free
//!   fixpoint.

use crate::datasets::Scale;
use crate::report::Table;
use pgxd::BuildEngine;
use pgxd_algorithms as algos;
use pgxd_graph::generate;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Ranks in the spawned cluster: three, so killing one still leaves a
/// *distributed* (2-machine) survivor cluster.
const MACHINES: usize = 3;
/// The rank the kill run SIGKILLs — a non-coordinator.
const VICTIM: usize = 2;
/// PageRank score tolerance vs the in-memory run.
const TOL: f64 = 1e-12;
/// Collective checkpoint cadence (iterations).
const CKPT_EVERY: u64 = 2;
/// Crash-watchdog silence threshold handed to every rank.
const HEARTBEAT_MS: u64 = 600;

struct GraphSpec {
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
                iters: 6,
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

/// One rank's parsed `--out` file (recover-mode schema).
struct NodeResult {
    recovered: u64,
    final_machines: usize,
    reconnects_dialed: u64,
    reconnects_accepted: u64,
    resets_injected: u64,
    stalls_injected: u64,
    pagerank: Vec<f64>,
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

struct RankPlan<'a> {
    g: &'a GraphSpec,
    recover_coord: &'a str,
    pause_at_iter: u64,
    pause_ms: u64,
    wire_reset_per_mille: u16,
    wire_stall_per_mille: u16,
}

fn spawn_rank(bin: &PathBuf, rank: usize, coord: &str, out: &PathBuf, plan: &RankPlan) -> Child {
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
        .arg(&plan.g.spec)
        .arg("--iters")
        .arg(plan.g.iters.to_string())
        .arg("--checkpoint-every")
        .arg(CKPT_EVERY.to_string())
        .arg("--recover-coord")
        .arg(plan.recover_coord)
        .arg("--heartbeat-ms")
        .arg(HEARTBEAT_MS.to_string());
    if plan.pause_at_iter > 0 {
        cmd.arg("--pause-at-iter")
            .arg(plan.pause_at_iter.to_string())
            .arg("--pause-ms")
            .arg(plan.pause_ms.to_string());
    }
    if plan.wire_reset_per_mille > 0 {
        cmd.arg("--wire-reset-per-mille")
            .arg(plan.wire_reset_per_mille.to_string());
    }
    if plan.wire_stall_per_mille > 0 {
        cmd.arg("--wire-stall-per-mille")
            .arg(plan.wire_stall_per_mille.to_string());
    }
    cmd.stdout(if rank == 0 {
        Stdio::piped()
    } else {
        Stdio::null()
    });
    cmd.stderr(Stdio::inherit());
    cmd.spawn()
        .unwrap_or_else(|e| panic!("spawn pgxd-node rank {rank}: {e}"))
}

/// Waits for every child within `deadline`. Ranks listed in `expect_dead`
/// may exit abnormally (they were SIGKILLed); everyone else must succeed.
fn wait_all(mut children: Vec<Child>, expect_dead: &[usize], deadline: Duration) {
    let t0 = Instant::now();
    let mut done = vec![false; children.len()];
    while done.iter().any(|d| !d) {
        for (rank, child) in children.iter_mut().enumerate() {
            if done[rank] {
                continue;
            }
            match child.try_wait().expect("try_wait") {
                Some(status) if status.success() || expect_dead.contains(&rank) => {
                    done[rank] = true
                }
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
        recovered: field("recovered").parse().unwrap(),
        final_machines: field("final_machines").parse().unwrap(),
        reconnects_dialed: field("reconnects_dialed").parse().unwrap(),
        reconnects_accepted: field("reconnects_accepted").parse().unwrap(),
        resets_injected: field("resets_injected").parse().unwrap(),
        stalls_injected: field("stalls_injected").parse().unwrap(),
        pagerank: field("pagerank")
            .split(',')
            .map(|h| f64::from_bits(u64::from_str_radix(h, 16).unwrap()))
            .collect(),
    }
}

/// Spawns one 3-process recover-mode cluster. `kill_victim` arms the
/// SIGKILL choreography: wait for every rank's pause marker, then kill
/// rank [`VICTIM`]. Returns the surviving ranks' parsed results.
fn run_cluster(g: &GraphSpec, tag: &str, kill_victim: bool, faults: bool) -> Vec<NodeResult> {
    let bin = node_bin();
    let dir = std::env::temp_dir().join(format!("pgxd-wrec-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create wire-recover tmp dir");
    let outs: Vec<PathBuf> = (0..MACHINES)
        .map(|r| dir.join(format!("rank{r}.txt")))
        .collect();
    let recover_coord = pgxd::transport::reserve_loopback_addr().expect("reserve recovery port");
    let plan = RankPlan {
        g,
        recover_coord: &recover_coord,
        // The kill window opens right after the checkpoint at iteration
        // CKPT_EVERY; the watchdog fires *inside* the window, while every
        // survivor is still heartbeating normally, which keeps the blame
        // unambiguous.
        pause_at_iter: if kill_victim { CKPT_EVERY } else { 0 },
        pause_ms: 2_000,
        wire_reset_per_mille: if faults { 8 } else { 0 },
        wire_stall_per_mille: if faults { 5 } else { 0 },
    };

    let mut rank0 = spawn_rank(&bin, 0, "127.0.0.1:0", &outs[0], &plan);
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
        children.push(spawn_rank(&bin, rank, &coord, out, &plan));
    }

    let mut expect_dead: Vec<usize> = Vec::new();
    if kill_victim {
        // Wait until every rank reports its pause window is open — all
        // three are sleeping between iterations, the iteration-CKPT_EVERY
        // checkpoint safely replicated — then SIGKILL the victim.
        let markers: Vec<PathBuf> = outs
            .iter()
            .map(|o| PathBuf::from(format!("{}.paused", o.display())))
            .collect();
        let t0 = Instant::now();
        while !markers.iter().all(|m| m.exists()) {
            assert!(
                t0.elapsed() < Duration::from_secs(60),
                "cluster never reached the pause window"
            );
            for (rank, child) in children.iter_mut().enumerate() {
                if let Some(status) = child.try_wait().expect("try_wait") {
                    for c in children.iter_mut() {
                        c.kill().ok();
                    }
                    panic!("pgxd-node rank {rank} exited ({status}) before the kill window");
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        children[VICTIM].kill().expect("SIGKILL victim");
        expect_dead.push(VICTIM);
        eprintln!("[wire-recover] SIGKILLed rank {VICTIM} inside the pause window");
    }

    wait_all(children, &expect_dead, Duration::from_secs(120));
    let mut rest = String::new();
    let _ = std::io::Read::read_to_string(&mut reader, &mut rest);

    let results: Vec<NodeResult> = outs
        .iter()
        .enumerate()
        .filter(|(rank, _)| !expect_dead.contains(rank))
        .map(|(_, out)| parse_out(out))
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    results
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The fault-free fixpoint: same graph, same machine count, and the same
/// stepwise resumable algorithm the nodes run, on the in-memory backend.
fn reference(g: &GraphSpec) -> Vec<f64> {
    use pgxd::ResumableAlgorithm;
    let graph = g.build();
    let mut e = pgxd::Engine::builder()
        .machines(MACHINES)
        .workers(2)
        .engine(&graph)
        .unwrap();
    algos::ResumablePageRankPull::new(0.85, g.iters, 0.0)
        .run_to_completion(&mut e)
        .expect("fault-free reference run")
        .scores
}

/// Cross-checks one run's survivors against each other and the reference;
/// returns (max |Δ|, bit-identical?).
fn check_scores(name: &str, results: &[NodeResult], reference: &[f64]) -> (f64, bool) {
    assert!(!results.is_empty(), "{name}: no survivor results");
    for (i, r) in results.iter().enumerate() {
        assert_eq!(
            r.pagerank.len(),
            reference.len(),
            "{name}: survivor {i} gathered {} scores, expected {}",
            r.pagerank.len(),
            reference.len()
        );
        assert_eq!(
            bits(&r.pagerank),
            bits(&results[0].pagerank),
            "{name}: survivor {i} disagrees with survivor 0 on PageRank"
        );
    }
    let max_delta = results[0]
        .pagerank
        .iter()
        .zip(reference)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(
        max_delta <= TOL,
        "{name}: PageRank diverges from the fault-free fixpoint by {max_delta:e} (> {TOL:e})"
    );
    (max_delta, bits(&results[0].pagerank) == bits(reference))
}

pub fn run_experiment(scale: Scale, quick: bool) -> Table {
    let g = GraphSpec::pick(scale, quick);
    eprintln!("[wire-recover] graph {} — in-memory reference run", g.spec);
    let reference = reference(&g);

    // --- Baseline: clean TCP cluster, no faults, no kill. --------------
    eprintln!("[wire-recover] {MACHINES}-process cluster, clean wire baseline");
    let clean = run_cluster(&g, "clean", false, false);
    let (_, _) = check_scores("clean", &clean, &reference);

    // --- Run A: seeded socket faults, nobody dies. ---------------------
    eprintln!("[wire-recover] {MACHINES}-process cluster, seeded resets + stalls");
    let faulty = run_cluster(&g, "faults", false, true);
    let (fault_delta, fault_bits) = check_scores("faults", &faulty, &reference);
    // Transport-level faults must change nothing observable beyond the
    // engine's pre-existing run-to-run float jitter: worker scheduling
    // already makes remote-read accumulation arrival-order dependent
    // (two *clean* runs differ in the last ULP), so the enforceable bound
    // is the same 1e-12 reassociation floor as every backend comparison.
    let fault_vs_clean = faulty[0]
        .pagerank
        .iter()
        .zip(&clean[0].pagerank)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(
        fault_vs_clean <= TOL,
        "seeded wire faults moved converged PageRank {fault_vs_clean:e} (> {TOL:e}) \
         away from the clean TCP run"
    );
    let resets: u64 = faulty.iter().map(|r| r.resets_injected).sum();
    let stalls: u64 = faulty.iter().map(|r| r.stalls_injected).sum();
    let reconnects: u64 = faulty
        .iter()
        .map(|r| r.reconnects_dialed + r.reconnects_accepted)
        .sum();
    assert!(
        resets > 0 && stalls > 0,
        "seeded fault run injected nothing (resets={resets}, stalls={stalls}) — \
         the WireFaultPlan never fired"
    );
    assert!(
        reconnects > 0,
        "seeded fault run reported zero reconnects — injected resets never \
         exercised the redial path"
    );
    for r in &faulty {
        assert_eq!(r.recovered, 0, "fault run must not trigger recovery");
        assert_eq!(r.final_machines, MACHINES);
    }

    // --- Run B: SIGKILL a non-coordinator mid-run (Unix only). ---------
    let (kill_delta, kill_bits, kill_reconnects) = if cfg!(unix) {
        eprintln!("[wire-recover] {MACHINES}-process cluster, SIGKILL rank {VICTIM} mid-run");
        let survivors = run_cluster(&g, "kill", true, false);
        let (d, b) = check_scores("kill", &survivors, &reference);
        assert_eq!(
            survivors.len(),
            MACHINES - 1,
            "expected {} survivor out files",
            MACHINES - 1
        );
        for r in &survivors {
            assert_eq!(
                r.recovered, 1,
                "every survivor must report exactly one recovery"
            );
            assert_eq!(
                r.final_machines,
                MACHINES - 1,
                "survivors must converge on the degraded cluster"
            );
        }
        let rc: u64 = survivors
            .iter()
            .map(|r| r.reconnects_dialed + r.reconnects_accepted)
            .sum();
        (d, b, rc)
    } else {
        eprintln!("[wire-recover] SIGKILL run skipped (non-Unix host)");
        (0.0, true, 0)
    };

    let mut t = Table::new(
        &format!(
            "wire-recover — {MACHINES}-process TCP fault tolerance ({})",
            g.spec
        ),
        vec![
            "max|Δ| pagerank".into(),
            "bit-identical".into(),
            "reconnects".into(),
            "recovered".into(),
        ],
        "Δ vs fault-free in-memory fixpoint; kill row SIGKILLs a non-coordinator rank",
    );
    t.push_row(
        "seeded resets+stalls",
        vec![
            Some(fault_delta),
            Some(fault_bits as u8 as f64),
            Some(reconnects as f64),
            Some(0.0),
        ],
    );
    t.push_row(
        "SIGKILL rank 2",
        vec![
            Some(kill_delta),
            Some(kill_bits as u8 as f64),
            Some(kill_reconnects as f64),
            Some(1.0),
        ],
    );
    t
}
