//! `repro wire-recover`: real-wire fault-tolerance acceptance.
//!
//! Two acceptance runs over a **3-process** `pgxd-node` TCP cluster
//! executing checkpointed resumable PageRank:
//!
//! * **Seeded wire faults, no kill**: every rank arms a `WireFaultPlan`
//!   (injected connection resets, mid-frame write stalls, one refused
//!   reconnect accept per rank) and the cluster must still produce the
//!   fault-free run's PageRank bit for bit — the reconnect machinery plus
//!   the reliability layer's sequencing/dedup deliver exactly once across
//!   socket lives, and a mirrored pull folds every neighbour value from a
//!   local copy in CSR order, so arrival order cannot move a bit. The run
//!   must also report *nonzero* reconnect and injected-fault telemetry,
//!   proving the plan actually fired.
//!
//! * **SIGKILL mid-run** (Unix only): the orchestrator waits for every
//!   rank's pause marker (the cluster idles between iterations right
//!   after a collective checkpoint), SIGKILLs a non-coordinator rank,
//!   and the survivors must detect the death (crash watchdog or redial
//!   exhaustion), re-bootstrap as a 2-machine cluster at a pre-agreed
//!   recovery coordinator address, adopt the newest checkpoint, restore
//!   it degraded, and produce the fault-free fixpoint's bits: the restore
//!   is exact and re-partitioning changes no vertex's fold order
//!   (DESIGN.md §16.6).
//!
//! Both rows still report max |Δ| against the in-memory reference.

use super::ranks::{bits, kill_all, read_out, spawn_cluster, wait_all, GraphSpec};
use crate::datasets::Scale;
use crate::report::Table;
use pgxd::BuildEngine;
use pgxd_algorithms as algos;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Ranks in the spawned cluster: three, so killing one still leaves a
/// *distributed* (2-machine) survivor cluster.
const MACHINES: usize = 3;
/// The rank the kill run SIGKILLs — a non-coordinator.
const VICTIM: usize = 2;
/// Collective checkpoint cadence (iterations).
const CKPT_EVERY: u64 = 2;
/// Crash-watchdog silence threshold handed to every rank.
const HEARTBEAT_MS: u64 = 600;

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

/// Spawns one 3-process recover-mode cluster. `kill_victim` arms the
/// SIGKILL choreography: wait for every rank's pause marker, then kill
/// rank [`VICTIM`]. Returns the surviving ranks' parsed results.
fn run_cluster(g: &GraphSpec, tag: &str, kill_victim: bool, faults: bool) -> Vec<NodeResult> {
    let dir = std::env::temp_dir().join(format!("pgxd-wrec-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create wire-recover tmp dir");
    let outs: Vec<PathBuf> = (0..MACHINES)
        .map(|r| dir.join(format!("rank{r}.txt")))
        .collect();
    let recover_coord = pgxd::transport::reserve_loopback_addr().expect("reserve recovery port");
    let mut extra_args = vec![
        "--checkpoint-every".into(),
        CKPT_EVERY.to_string(),
        "--recover-coord".into(),
        recover_coord,
        "--heartbeat-ms".into(),
        HEARTBEAT_MS.to_string(),
    ];
    if kill_victim {
        // The kill window opens right after the checkpoint at iteration
        // CKPT_EVERY; the watchdog fires *inside* the window, while every
        // survivor is still heartbeating normally, which keeps the blame
        // unambiguous.
        extra_args.extend(["--pause-at-iter".into(), CKPT_EVERY.to_string()]);
        extra_args.extend(["--pause-ms".into(), "2000".into()]);
    }
    if faults {
        extra_args.extend(["--wire-reset-per-mille".into(), "8".into()]);
        extra_args.extend(["--wire-stall-per-mille".into(), "5".into()]);
    }

    let (mut children, rank0_stdout) = spawn_cluster(&outs, g, &extra_args);

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
            for rank in 0..MACHINES {
                if let Some(status) = children[rank].try_wait().expect("try_wait") {
                    kill_all(
                        &mut children,
                        format!("pgxd-node rank {rank} exited ({status}) before the kill window"),
                    );
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        children[VICTIM].kill().expect("SIGKILL victim");
        expect_dead.push(VICTIM);
        eprintln!("[wire-recover] SIGKILLed rank {VICTIM} inside the pause window");
    }

    wait_all(children, &expect_dead, Duration::from_secs(120));
    drop(rank0_stdout);

    let results: Vec<NodeResult> = outs
        .iter()
        .enumerate()
        .filter(|(rank, _)| !expect_dead.contains(rank))
        .map(|(_, out)| {
            let out = read_out(out);
            NodeResult {
                recovered: out.num("recovered"),
                final_machines: out.num("final_machines"),
                reconnects_dialed: out.num("reconnects_dialed"),
                reconnects_accepted: out.num("reconnects_accepted"),
                resets_injected: out.num("resets_injected"),
                stalls_injected: out.num("stalls_injected"),
                pagerank: out.f64s("pagerank"),
            }
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    results
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
    algos::ResumablePageRank::pull(0.85, g.iters, 0.0)
        .run_to_completion(&mut e)
        .expect("fault-free reference run")
        .scores
}

/// Checks that every survivor of one run holds the reference's PageRank
/// bits; returns max |Δ| against it (0 when the check passes).
fn check_scores(name: &str, results: &[NodeResult], reference: &[f64]) -> f64 {
    assert!(!results.is_empty(), "{name}: no survivor results");
    for (i, r) in results.iter().enumerate() {
        assert_eq!(
            r.pagerank.len(),
            reference.len(),
            "{name}: survivor {i} gathered {} scores, expected {}",
            r.pagerank.len(),
            reference.len()
        );
        let max_delta = r
            .pagerank
            .iter()
            .zip(reference)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert_eq!(
            bits(&r.pagerank),
            bits(reference),
            "{name}: survivor {i}'s PageRank is not the fault-free fixpoint's bits \
             (max |Δ| {max_delta:e})"
        );
    }
    results[0]
        .pagerank
        .iter()
        .zip(reference)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max)
}

pub fn run_experiment(scale: Scale, quick: bool) -> Table {
    let g = GraphSpec::pick(scale, quick, 6);
    eprintln!("[wire-recover] graph {} — in-memory reference run", g.spec);
    let reference = reference(&g);

    // --- Baseline: clean TCP cluster, no faults, no kill. --------------
    eprintln!("[wire-recover] {MACHINES}-process cluster, clean wire baseline");
    let clean = run_cluster(&g, "clean", false, false);
    check_scores("clean", &clean, &reference);

    // --- Run A: seeded socket faults, nobody dies. ---------------------
    eprintln!("[wire-recover] {MACHINES}-process cluster, seeded resets + stalls");
    let faulty = run_cluster(&g, "faults", false, true);
    let fault_delta = check_scores("faults", &faulty, &reference);
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
    let (kill_delta, kill_reconnects) = if cfg!(unix) {
        eprintln!("[wire-recover] {MACHINES}-process cluster, SIGKILL rank {VICTIM} mid-run");
        let survivors = run_cluster(&g, "kill", true, false);
        let d = check_scores("kill", &survivors, &reference);
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
        (d, rc)
    } else {
        eprintln!("[wire-recover] SIGKILL run skipped (non-Unix host)");
        (0.0, 0)
    };

    let mut t = Table::new(
        &format!(
            "wire-recover — {MACHINES}-process TCP fault tolerance ({})",
            g.spec
        ),
        vec![
            "max|Δ| pagerank".into(),
            "reconnects".into(),
            "recovered".into(),
        ],
        "Δ vs fault-free in-memory fixpoint, whose bits each row must reproduce; \
         kill row SIGKILLs a non-coordinator rank",
    );
    t.push_row(
        "seeded resets+stalls",
        vec![Some(fault_delta), Some(reconnects as f64), Some(0.0)],
    );
    t.push_row(
        "SIGKILL rank 2",
        vec![Some(kill_delta), Some(kill_reconnects as f64), Some(1.0)],
    );
    t
}
