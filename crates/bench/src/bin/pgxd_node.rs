//! `pgxd-node` — one OS process hosting one machine of a real
//! multi-process PGX.D cluster over TCP sockets.
//!
//! Every rank runs this same binary with the same driver program (the
//! SPMD model of §4.2: sequential regions execute on every rank in
//! lockstep, parallel regions run as distributed jobs). Rank 0 doubles
//! as the bootstrap coordinator: it binds the coordinator listener,
//! announces the concrete address on stdout as `coord=HOST:PORT` (so an
//! orchestrator can pass it to the other ranks even with a `:0`
//! ephemeral port), and waits for the cluster to form.
//!
//! ```text
//! pgxd-node --rank 0 --machines 2 --coord 127.0.0.1:0 --out /tmp/r0.txt
//! pgxd-node --rank 1 --machines 2 --coord 127.0.0.1:PORT --out /tmp/r1.txt
//! ```
//!
//! Two driver programs:
//!
//! * **Legacy sweep** (default): each rank runs PageRank (pull), WCC and
//!   Hop Dist, then writes its full result vectors (f64 bit patterns in
//!   hex — exact, no formatting loss), the ghost candidate count and its
//!   machine's mirror slots, cluster-wide retransmit telemetry and its
//!   own termination-wait quantiles to `--out`. The `repro wire`
//!   experiment asserts every rank writes identical result lines and
//!   diffs them and the slot count against an in-memory run.
//!
//! * **Fault-tolerant PageRank** (`--checkpoint-every K > 0`): the rank
//!   hands stepwise resumable PageRank to
//!   [`RecoveryDriver::run_rank`] — the recovery loop every deployment
//!   shape runs — with collective checkpoints every K iterations. If a
//!   peer machine dies mid-run (SIGKILL — detected by the crash watchdog
//!   or by redial exhaustion), the survivors re-bootstrap as a
//!   (P-1)-machine cluster at `--recover-coord`, adopt the newest intact
//!   checkpoint, restore in degraded mode and resume from the checkpointed
//!   iteration. The `repro wire-recover` experiment drives this end to end.

use pgxd::recover::Scripted;
use pgxd::transport::WireCountersSnapshot;
use pgxd::{
    Config, EngineBuilder, FaultPlan, RecoveryDriver, ReliabilityConfig, TransportConfig,
    WireFaultPlan,
};
use pgxd_algorithms as algos;
use pgxd_graph::generate;
use std::io::Write as _;
use std::time::Duration;

struct Args {
    rank: u16,
    machines: usize,
    coord: String,
    out: String,
    graph: String,
    iters: usize,
    workers: usize,
    drop_per_mille: u16,
    // --- fault-tolerant mode (active when checkpoint_every > 0) --------
    checkpoint_every: u64,
    recover_coord: String,
    pause_at_iter: u64,
    pause_ms: u64,
    wire_reset_per_mille: u16,
    wire_stall_per_mille: u16,
    wire_seed: u64,
    heartbeat_ms: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: pgxd-node --rank R --machines N --coord HOST:PORT --out FILE\n\
         \x20                [--graph ring:N|rmat:SCALE:DEG:SEED] [--iters K]\n\
         \x20                [--workers W] [--drop-per-mille P]\n\
         \x20                [--checkpoint-every K] [--recover-coord HOST:PORT]\n\
         \x20                [--pause-at-iter K --pause-ms M]\n\
         \x20                [--wire-reset-per-mille P] [--wire-stall-per-mille P]\n\
         \x20                [--wire-seed S] [--heartbeat-ms H]\n\n\
         Rank 0 binds the coordinator listener (a :0 port is fine) and\n\
         prints the concrete address as `coord=HOST:PORT` on stdout.\n\
         With --checkpoint-every > 0 the rank runs resumable PageRank and,\n\
         if a peer dies mid-run, re-bootstraps the survivors at\n\
         --recover-coord and resumes from the newest intact checkpoint."
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        rank: u16::MAX,
        machines: 0,
        coord: String::new(),
        out: String::new(),
        graph: "rmat:7:4:3017".into(),
        iters: 5,
        workers: 2,
        drop_per_mille: 0,
        checkpoint_every: 0,
        recover_coord: String::new(),
        pause_at_iter: 0,
        pause_ms: 0,
        wire_reset_per_mille: 0,
        wire_stall_per_mille: 0,
        wire_seed: 0x77_13,
        heartbeat_ms: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} requires a value");
                usage()
            })
        };
        match flag.as_str() {
            "--rank" => a.rank = val("--rank").parse().unwrap_or_else(|_| usage()),
            "--machines" => a.machines = val("--machines").parse().unwrap_or_else(|_| usage()),
            "--coord" => a.coord = val("--coord"),
            "--out" => a.out = val("--out"),
            "--graph" => a.graph = val("--graph"),
            "--iters" => a.iters = val("--iters").parse().unwrap_or_else(|_| usage()),
            "--workers" => a.workers = val("--workers").parse().unwrap_or_else(|_| usage()),
            "--drop-per-mille" => {
                a.drop_per_mille = val("--drop-per-mille").parse().unwrap_or_else(|_| usage())
            }
            "--checkpoint-every" => {
                a.checkpoint_every = val("--checkpoint-every")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--recover-coord" => a.recover_coord = val("--recover-coord"),
            "--pause-at-iter" => {
                a.pause_at_iter = val("--pause-at-iter").parse().unwrap_or_else(|_| usage())
            }
            "--pause-ms" => a.pause_ms = val("--pause-ms").parse().unwrap_or_else(|_| usage()),
            "--wire-reset-per-mille" => {
                a.wire_reset_per_mille = val("--wire-reset-per-mille")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--wire-stall-per-mille" => {
                a.wire_stall_per_mille = val("--wire-stall-per-mille")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--wire-seed" => a.wire_seed = val("--wire-seed").parse().unwrap_or_else(|_| usage()),
            "--heartbeat-ms" => {
                a.heartbeat_ms = val("--heartbeat-ms").parse().unwrap_or_else(|_| usage())
            }
            "-h" | "--help" => usage(),
            other => {
                eprintln!("unknown flag '{other}'");
                usage()
            }
        }
    }
    if a.rank == u16::MAX || a.machines == 0 || a.coord.is_empty() || a.out.is_empty() {
        usage();
    }
    a
}

fn build_graph(spec: &str) -> pgxd_graph::Graph {
    let parts: Vec<&str> = spec.split(':').collect();
    match parts.as_slice() {
        ["ring", n] => generate::ring(n.parse().expect("ring size")),
        ["rmat", scale, deg, seed] => generate::rmat(
            scale.parse().expect("rmat scale"),
            deg.parse().expect("rmat degree"),
            generate::RmatParams::skewed(),
            seed.parse().expect("rmat seed"),
        ),
        _ => {
            eprintln!("bad --graph '{spec}' (want ring:N or rmat:SCALE:DEG:SEED)");
            usage()
        }
    }
}

/// This rank's config for the cluster's first incarnation; the recovery
/// loop derives the later ones (fewer machines, a shifted rank, the
/// recovery coordinator, wire-fault injection off).
fn node_config(a: &Args) -> Config {
    // A 1 ms housekeeping tick keeps retransmit latency (and, under a
    // lossy plan, the repair of a lost termination frame) low on
    // localhost; the defaults target simulated fabrics.
    let mut reliability = ReliabilityConfig {
        tick_ms: 1,
        rto_base_ms: 10,
        ..ReliabilityConfig::default()
    };
    if a.heartbeat_ms > 0 {
        reliability.watchdog_ms = a.heartbeat_ms;
    }
    let mut builder = Config::builder()
        .machines(a.machines)
        .workers(a.workers)
        .transport(TransportConfig::tcp(a.coord.clone(), a.rank))
        // Histograms on: the rank file reports the termination wait.
        .telemetry(pgxd::TelemetryConfig::on())
        .reliability(reliability);
    if a.checkpoint_every > 0 {
        builder = builder.checkpoint_every(a.checkpoint_every);
    }
    if a.wire_reset_per_mille > 0 || a.wire_stall_per_mille > 0 {
        builder = builder.wire_fault(WireFaultPlan {
            seed: a.wire_seed ^ (a.rank as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            reset_per_mille: a.wire_reset_per_mille,
            stall_per_mille: a.wire_stall_per_mille,
            refuse_accepts: u32::from(a.wire_reset_per_mille > 0),
        });
    }
    if a.drop_per_mille > 0 {
        // The loss injector sits in the Fabric above the transport, so a
        // lossy plan exercises the ack/retransmit machinery identically
        // on TCP and in-memory backends.
        builder = builder.fault(FaultPlan {
            seed: 0x7712 + a.rank as u64,
            drop_per_mille: a.drop_per_mille,
            ..FaultPlan::default()
        });
    }
    builder.build().unwrap_or_else(|e| {
        eprintln!("bad config: {e}");
        std::process::exit(2);
    })
}

/// Rank 0 announces the coordinator address it bound (a `:0` port is
/// fine) so an orchestrator can hand it to the other ranks.
fn announce(addr: &str) {
    println!("coord={addr}");
    std::io::stdout().flush().ok();
}

fn write_out(a: &Args, body: &str) -> Result<(), String> {
    std::fs::write(&a.out, body).map_err(|e| format!("write {}: {e}", a.out))
}

/// Legacy sweep: PageRank + WCC + Hop Dist on one cluster incarnation.
fn run_sweep(a: &Args, graph: &pgxd_graph::Graph) -> Result<(), String> {
    let mut engine = EngineBuilder::from_config(node_config(a)).build_rank(graph, announce)?;

    // --- The SPMD driver program: identical on every rank. -------------
    let err = |e: pgxd::JobError| format!("job failed: {e}");
    let pr = algos::try_pagerank_pull(&mut engine, 0.85, a.iters, 0.0).map_err(err)?;
    let wcc = algos::try_wcc(&mut engine).map_err(err)?;
    let hops = algos::try_hopdist(&mut engine, 0).map_err(err)?;

    // Cluster-wide retransmit telemetry: allgather each rank's local
    // counter (node-mode `total_stats` only sees the local machine).
    let local_retransmits = engine.cluster().total_stats().retransmits;
    let all = engine
        .cluster()
        .node_allgather(&local_retransmits.to_le_bytes())
        .map_err(|e| format!("telemetry allgather: {e}"))?;
    let total_retransmits: u64 = all
        .iter()
        .map(|b| u64::from_le_bytes(b[..8].try_into().unwrap()))
        .sum();

    let wire = engine.wire_counters().unwrap_or_default();

    let mut out = String::new();
    out.push_str(&format!("rank={}\n", a.rank));
    out.push_str(&format!("machines={}\n", a.machines));
    out.push_str(&format!("ghosts={}\n", engine.cluster().ghosts().len()));
    let mirrors = engine.cluster().machines()[0].graph.num_ghosts();
    out.push_str(&format!("mirrors={mirrors}\n"));
    out.push_str(&format!("retransmits_local={local_retransmits}\n"));
    out.push_str(&format!("retransmits_total={total_retransmits}\n"));
    push_wire_lines(&mut out, &wire);
    push_term_lines(&mut out, &engine);
    let pr_hex: Vec<String> = pr
        .scores
        .iter()
        .map(|s| format!("{:016x}", s.to_bits()))
        .collect();
    out.push_str(&format!("pagerank={}\n", pr_hex.join(",")));
    let wcc_s: Vec<String> = wcc.component.iter().map(|c| c.to_string()).collect();
    out.push_str(&format!("wcc={}\n", wcc_s.join(",")));
    let hops_s: Vec<String> = hops.hops.iter().map(|h| h.to_string()).collect();
    out.push_str(&format!("hopdist={}\n", hops_s.join(",")));
    write_out(a, &out)?;

    // Cross-rank barrier before teardown: no rank may close its sockets
    // while a peer is still inside a job.
    engine
        .cluster()
        .node_barrier()
        .map_err(|e| format!("teardown barrier: {e}"))?;
    Ok(())
}

fn push_wire_lines(out: &mut String, w: &WireCountersSnapshot) {
    out.push_str(&format!("reconnects_dialed={}\n", w.reconnects_dialed));
    out.push_str(&format!("reconnects_accepted={}\n", w.reconnects_accepted));
    out.push_str(&format!("resets_injected={}\n", w.resets_injected));
    out.push_str(&format!("stalls_injected={}\n", w.stalls_injected));
    out.push_str(&format!("accepts_refused={}\n", w.accepts_refused));
    out.push_str(&format!("reader_eofs={}\n", w.reader_eofs));
}

/// What termination detection cost this rank: the wait from "my task list
/// is empty" to the release, once per phase.
fn push_term_lines(out: &mut String, engine: &pgxd::Engine) {
    let waits = engine.cluster().machines()[0]
        .telemetry
        .term_release_wait_snapshot();
    out.push_str(&format!("term_release_waits={}\n", waits.count()));
    for (name, q) in [("p50", 0.50), ("p99", 0.99)] {
        let ns = waits.quantile_lower_bound(q);
        out.push_str(&format!("term_release_wait_{name}_ns={ns}\n"));
    }
}

/// Fault-tolerant PageRank: stepwise iterations with collective
/// checkpoints, and full re-bootstrap recovery on machine death.
fn run_recover(a: &Args, graph: &pgxd_graph::Graph) -> Result<(), String> {
    // The orchestrator's kill window: on the first attempt, before
    // iteration `--pause-at-iter` starts — right after the cadence
    // checkpoint for it — every rank drops a marker file and lingers, so a
    // SIGKILL lands between iterations with that checkpoint in the ring.
    let kill_window = |attempt: u32, iteration: u64| {
        if attempt == 1 && a.pause_at_iter > 0 && iteration == a.pause_at_iter {
            std::fs::write(format!("{}.paused", a.out), b"").ok();
            std::thread::sleep(Duration::from_millis(a.pause_ms));
        }
        Ok(())
    };
    let pagerank = algos::ResumablePageRank::pull(0.85, a.iters, 0.0);
    let rec = RecoveryDriver::new(graph, node_config(a))?
        .run_rank(
            &a.recover_coord,
            announce,
            &mut Scripted::new(pagerank, kill_window),
        )
        .map_err(|e| format!("job failed: {e}"))?;

    let mut out = String::new();
    out.push_str(&format!("rank={}\n", a.rank));
    out.push_str(&format!("machines={}\n", a.machines));
    out.push_str(&format!("final_machines={}\n", rec.machines));
    out.push_str(&format!("recovered={}\n", rec.recoveries));
    out.push_str(&format!("iterations={}\n", rec.output.iterations));
    push_wire_lines(&mut out, &rec.wire);
    let pr_hex: Vec<String> = rec
        .output
        .scores
        .iter()
        .map(|s| format!("{:016x}", s.to_bits()))
        .collect();
    out.push_str(&format!("pagerank={}\n", pr_hex.join(",")));
    write_out(a, &out)
}

fn main() {
    let a = parse_args();
    let graph = build_graph(&a.graph);
    let result = if a.checkpoint_every > 0 {
        run_recover(&a, &graph)
    } else {
        run_sweep(&a, &graph)
    };
    match result {
        Ok(()) => println!("done rank={}", a.rank),
        Err(e) => {
            eprintln!("pgxd-node rank {}: {e}", a.rank);
            std::process::exit(1);
        }
    }
}
