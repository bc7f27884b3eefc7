//! The deterministic whole-stack chaos soak (`cargo test -p pgxd-bench
//! --test soak`).
//!
//! One seeded run drives both robustness stacks end to end on the pinned
//! TWT-S × 4 preset and asserts the global invariants:
//!
//! * **Serve phase** — a seeded stream of mixed interactive/batch jobs
//!   across three sessions, submitted against a throttled queue so the
//!   overload brownout sheds batch load (structured `Overloaded` with a
//!   retry-after hint) and re-opens once the queue drains; queued and
//!   mid-run cancellations; an expired deadline; client resubmissions
//!   drawing on the server-wide retry budget until it runs dry.
//! * **Recovery phase** — PageRank under combined fabric faults
//!   (dup/reorder/drop) and storage faults (seeded shard corruption),
//!   with machine flaps injected at fixed (attempt, iteration) points:
//!   the first flap retries at full size and must *fall back* past
//!   corrupted ring entries to an older checkpoint; the second flap
//!   trips the quarantine and restores degraded on P−1. A separate
//!   driver run with a one-token budget must fail with the structured
//!   `RetryBudgetExhausted`.
//!
//! Global invariants, asserted at the end (the soak *is* the check):
//! no hang (hard wall-clock bound), every submitted job reaches exactly
//! one terminal outcome, the serve counters reconcile with the
//! client-side ledger, the per-job traffic windows reconcile with machine
//! totals, property columns and buffer-pool quota are
//! fully reclaimed, and every converged result is within 1e-12 of the
//! fault-free fixpoint.
//!
//! Storage corruption is *scheduled*, not hoped for: the soak searches
//! for a seed whose [`StorageFaultPlan::draw`] pattern is clean for the
//! first three saves and corrupt for the next three, so the ring-fallback
//! restore is a certainty of the dice, independent of timing.

use pgxd::recover::Scripted;
use pgxd::serve::{JobHandle, JobReport, Lane, ServeEngine};
use pgxd::{
    BuildEngine, Config, Engine, FaultPlan, JobError, RecoveryDriver, ResumableAlgorithm,
    RetryBudget, StorageFaultKind, StorageFaultPlan, TelemetryConfig,
};
use pgxd_algorithms::pagerank::PageRankResult;
use pgxd_algorithms::{try_pagerank_pull, ResumablePageRank};
use pgxd_bench::datasets::{BenchGraph, Scale};
use pgxd_runtime::stats::{MachineStats, StatsSnapshot};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Simulated machines in the pinned preset.
const MACHINES: usize = 4;
/// Seed for the serve-phase job stream and the fabric fault plan.
const SOAK_SEED: u64 = 0x50a7_2026;

const DAMPING: f64 = 0.85;
const PR_ITERS: usize = 10;
const TOLERANCE: f64 = 1e-12;
/// Queue depth of the soaked server; brownout sheds at 3 queued
/// (500‰ of 6) and re-opens at ≤ 1 queued (200‰ of 6).
const QUEUE_DEPTH: usize = 6;
const SHED_PER_MILLE: u16 = 500;
const REOPEN_PER_MILLE: u16 = 200;
/// Server-wide retry tokens per soak; refill far beyond the run.
const RETRY_TOKENS: u32 = 3;
/// Batch jobs thrown at the closed gate per round — more than the
/// budget can ever resubmit, so exhaustion is guaranteed.
const SHED_VICTIMS: usize = 5;
/// Blocker/fill/shed/drain rounds of the serve stream; raise to soak
/// longer (the wall bound below is sized for one).
const ROUNDS: usize = 1;
/// Hard no-hang bound on the whole soak.
const WALL_BOUND: Duration = Duration::from_secs(240);

/// splitmix64 — the soak's own draw for stream randomization (sessions,
/// cancel victims). Independent of the runtime's fault dice.
fn mix64(seed: u64, n: u64) -> u64 {
    let mut z = seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// First seed whose corruption dice are clean for store counters 0..=2
/// and corrupt for 3..=5 at 500‰ — checkpoints 0–2 of an attempt land
/// verifiably, 3–5 land tampered, so a failure after iteration 5 *must*
/// take the ring-fallback path to an older clean entry.
fn fallback_seed() -> u64 {
    (0u64..100_000)
        .find(|&s| {
            let p = StorageFaultPlan::faulty(s, 0, 500, 0);
            (0..3).all(|c| p.draw(c) == StorageFaultKind::Store)
                && (3..6).all(|c| p.draw(c) == StorageFaultKind::Corrupt)
        })
        .expect("a qualifying corruption seed exists (p ≈ 1/64 per seed)")
}

/// Terminal-outcome-exactly-once ledger: every submission opens a slot,
/// every slot must be settled exactly once.
struct Ledger {
    outcomes: Vec<Option<&'static str>>,
}

impl Ledger {
    fn new() -> Self {
        Ledger {
            outcomes: Vec::new(),
        }
    }

    fn open(&mut self) -> usize {
        self.outcomes.push(None);
        self.outcomes.len() - 1
    }

    fn settle(&mut self, op: usize, what: &'static str) {
        assert!(
            self.outcomes[op].is_none(),
            "[soak] op {op} reached a second terminal outcome {what:?} after {:?}",
            self.outcomes[op]
        );
        self.outcomes[op] = Some(what);
    }

    fn count(&self, what: &str) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.as_deref() == Some(what))
            .count()
    }

    fn assert_all_settled(&self) {
        for (i, o) in self.outcomes.iter().enumerate() {
            assert!(
                o.is_some(),
                "[soak] op {i} never reached a terminal outcome"
            );
        }
    }
}

/// PageRank with deterministic machine flaps: reports `MachineDown` for
/// machine 1 at fixed (attempt, iteration) points — or at one iteration
/// on *every* attempt — and otherwise runs the real algorithm. Everything
/// else (checkpoints, restore, quarantine) is the production recovery path.
fn chaos_pagerank(
    fail_at: &'static [(u32, u64)],
    fail_every_attempt_at: Option<u64>,
) -> impl ResumableAlgorithm<Output = PageRankResult> {
    Scripted::new(
        ResumablePageRank::pull(DAMPING, PR_ITERS, 0.0),
        move |attempt, iteration| {
            if fail_at.contains(&(attempt, iteration)) || fail_every_attempt_at == Some(iteration) {
                return Err(JobError::MachineDown { machine: 1 });
            }
            Ok(())
        },
    )
}

fn totals(stats: &[Arc<MachineStats>]) -> StatsSnapshot {
    stats
        .iter()
        .map(|s| s.snapshot())
        .fold(StatsSnapshot::default(), |a, b| a + b)
}

fn max_delta(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f64, f64::max)
}

/// The acceptance scenario end to end: brownout cycle, budget exhaustion
/// (server- and driver-side), scheduled ring fallback, quarantine +
/// degraded restore, exactly-once terminal outcomes, and full
/// reclamation. Every invariant is asserted inline; reaching the end
/// inside the wall bound is the pass condition.
#[test]
fn soak_passes_at_quick_scale() {
    let t_start = Instant::now();
    let graph = BenchGraph::Twt.generate(Scale::Quick);

    // --- fault-free fixpoint --------------------------------------------
    eprintln!("[soak] running 'fault-free baseline'");
    let mut clean = Engine::builder()
        .machines(MACHINES)
        .workers(2)
        .copiers(1)
        .engine(&graph)
        .expect("engine");
    let baseline = try_pagerank_pull(&mut clean, DAMPING, PR_ITERS, 0.0)
        .expect("fault-free run failed")
        .scores;
    drop(clean);

    // ====================== serve phase =================================
    eprintln!("[soak] running 'serve chaos stream'");
    let engine = Engine::builder()
        .machines(MACHINES)
        .workers(2)
        .copiers(1)
        .telemetry(TelemetryConfig::on())
        .queue_depth(QUEUE_DEPTH)
        .brownout(SHED_PER_MILLE, REOPEN_PER_MILLE)
        .retry_budget(RETRY_TOKENS, 600_000)
        .engine(&graph)
        .expect("engine");
    let machine_stats: Vec<_> = engine
        .cluster()
        .machines()
        .iter()
        .map(|m| m.stats.clone())
        .collect();
    let pools: Vec<_> = engine
        .cluster()
        .machines()
        .iter()
        .map(|m| m.send_pool.clone())
        .collect();
    let wire_before = totals(&machine_stats);
    let server = engine.into_server();
    let sessions = [
        server.session("alpha"),
        server.session("beta"),
        server.session("gamma"),
    ];
    let pick = |draw: u64| &sessions[(draw % 3) as usize];

    let mut ledger = Ledger::new();
    let mut reports: Vec<JobReport> = Vec::new();
    let mut ops = 0u64; // stream position, feeds the seeded draws
    let mut resubmitted = 0usize; // shed ops re-admitted on a budget token
    let mut exhausted = 0usize; // shed ops that found the bucket dry
                                // Join one handle, settle its ledger slot, collect its report.
    let settle_join =
        |h: JobHandle<u64>, op: usize, ledger: &mut Ledger, reports: &mut Vec<JobReport>| {
            let (res, report) = h.join_with_report();
            if let Some(r) = report {
                reports.push(r);
            }
            match res {
                Ok(_) => ledger.settle(op, "done"),
                Err(JobError::Cancelled { .. }) => ledger.settle(op, "cancelled"),
                Err(JobError::DeadlineExceeded { .. }) => ledger.settle(op, "deadline"),
                Err(other) => panic!("[soak] unplanned job failure: {other}"),
            }
        };

    for round in 0..ROUNDS {
        // A blocker job holds the dispatcher so the queue fills while we
        // submit; everything behind it is decided by scheduler + gates.
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let blocker_op = ledger.open();
        let blocker: JobHandle<u64> = pick(mix64(SOAK_SEED, ops))
            .submit(Lane::Batch, 0, move |e: &mut Engine, _| {
                started_tx.send(()).expect("soak thread alive");
                release_rx.recv().expect("soak thread alive");
                Ok(e.num_nodes() as u64)
            })
            .expect("submit blocker");
        ops += 1;
        started_rx.recv().expect("blocker dispatched");

        // Fill to the shed threshold: 3 batch fillers enqueue, each
        // creating a column it deliberately never drops (session
        // reclamation must collect them).
        let mut queued: Vec<(usize, JobHandle<u64>)> = Vec::new();
        for f in 0..3 {
            let op = ledger.open();
            let name = format!("soak_r{round}_f{f}");
            let h = pick(mix64(SOAK_SEED, ops))
                .submit(Lane::Batch, 1, move |e: &mut Engine, _| {
                    let p = e.add_prop(&name, 0i64);
                    e.try_run_node_job(
                        &pgxd::JobSpec::new(),
                        pgxd::tasks::on_node(move |ctx| {
                            let v: i64 = ctx.get(p);
                            ctx.set(p, v + 1);
                        }),
                    )?;
                    Ok(e.num_nodes() as u64)
                })
                .expect("submit filler");
            ops += 1;
            queued.push((op, h));
        }

        // The gate must now shed batch work with the retry-after hint.
        let mut shed_ops: Vec<usize> = Vec::new();
        for _ in 0..SHED_VICTIMS {
            let op = ledger.open();
            let err = pick(mix64(SOAK_SEED, ops))
                .submit(Lane::Batch, 0, |e: &mut Engine, _| Ok(e.num_nodes() as u64))
                .expect_err("[soak] batch submit must be shed while browned out");
            ops += 1;
            match err {
                JobError::Overloaded { retry_after_ms } => {
                    assert!(retry_after_ms > 0, "[soak] shed without a retry-after hint");
                    ledger.settle(op, "shed");
                    shed_ops.push(op);
                }
                other => panic!("[soak] expected Overloaded, got {other}"),
            }
        }

        // The interactive lane stays live through the brownout.
        for _ in 0..2 {
            let op = ledger.open();
            let h = pick(mix64(SOAK_SEED, ops))
                .submit(Lane::Interactive, 0, |e: &mut Engine, _| {
                    Ok(e.num_nodes() as u64)
                })
                .expect("[soak] interactive lane must stay live during brownout");
            ops += 1;
            queued.push((op, h));
        }

        // One op with an already-expired deadline: fails at dispatch.
        let deadline_op = ledger.open();
        let doomed: JobHandle<u64> = pick(mix64(SOAK_SEED, ops))
            .submit_with_deadline(Lane::Interactive, 0, Duration::ZERO, |e: &mut Engine, _| {
                Ok(e.num_nodes() as u64)
            })
            .expect("submit doomed");
        ops += 1;

        // Cancel one seeded queued filler while it still waits.
        let victim = (mix64(SOAK_SEED, ops) % 3) as usize;
        ops += 1;
        queued[victim].1.cancel();

        // Drain: release the blocker, join every handle exactly once.
        release_tx.send(()).expect("blocker alive");
        settle_join(blocker, blocker_op, &mut ledger, &mut reports);
        settle_join(doomed, deadline_op, &mut ledger, &mut reports);
        for (op, h) in queued {
            settle_join(h, op, &mut ledger, &mut reports);
        }

        // Client-side resubmission of shed work, gated on the server-wide
        // retry budget. The first resubmit of round 0 sees an empty queue
        // and re-opens the gate.
        for _ in shed_ops {
            if server.try_retry() {
                let rop = ledger.open();
                let h = pick(mix64(SOAK_SEED, ops))
                    .submit(Lane::Batch, 0, |e: &mut Engine, _| Ok(e.num_nodes() as u64))
                    .expect("[soak] resubmit after reopen must be admitted");
                ops += 1;
                settle_join(h, rop, &mut ledger, &mut reports);
                resubmitted += 1;
            } else {
                exhausted += 1;
            }
        }
    }

    // One mid-run cancellation: scratch columns must be reclaimed now.
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let cancel_op = ledger.open();
    let victim: JobHandle<u64> = sessions[0]
        .submit(Lane::Batch, 2, move |e: &mut Engine, cancel| {
            let p = e.add_prop("soak_spin", 0i64);
            started_tx.send(()).expect("soak thread alive");
            loop {
                e.try_run_node_job_with(
                    &pgxd::JobSpec::new(),
                    pgxd::tasks::on_node(move |ctx| {
                        let v: i64 = ctx.get(p);
                        ctx.set(p, v + 1);
                    }),
                    cancel,
                )?;
            }
        })
        .expect("submit spin victim");
    started_rx.recv().expect("victim running");
    victim.cancel();
    settle_join(victim, cancel_op, &mut ledger, &mut reports);

    // A real converging job rides the soaked server last.
    let pr_op = ledger.open();
    let served_pr = sessions[1]
        .submit(Lane::Interactive, 4, |e: &mut Engine, cancel| {
            Ok(pgxd_algorithms::try_pagerank_pull_with(e, DAMPING, PR_ITERS, 0.0, cancel)?.scores)
        })
        .expect("submit served pagerank");
    let (pr_res, pr_report) = served_pr.join_with_report();
    let served_scores = pr_res.expect("served pagerank");
    reports.push(pr_report.expect("dispatched jobs report"));
    ledger.settle(pr_op, "done");
    let serve_delta = max_delta(&baseline, &served_scores);
    assert!(
        serve_delta <= TOLERANCE,
        "[soak] served PageRank diverged from the fault-free fixpoint: {serve_delta:e}"
    );

    // --- shut down, then check every serve invariant --------------------
    let telemetry = Arc::clone(server.telemetry());
    drop(sessions);
    let engine = server.shutdown();

    ledger.assert_all_settled();
    let stats = telemetry.stats().snapshot();
    let sheds = ledger.count("shed");
    assert_eq!(sheds, SHED_VICTIMS * ROUNDS, "[soak] shed count off");
    assert!(
        exhausted >= 1,
        "[soak] the retry budget never ran dry ({resubmitted} resubmits)"
    );
    assert_eq!(
        stats.retry_budget_exhausted, exhausted as u64,
        "[soak] exhaustion telemetry does not match the ledger"
    );
    assert!(
        stats.brownout_sheds >= 1 && stats.brownout_reopens >= 1,
        "[soak] no full brownout shed/re-open cycle in telemetry \
         (sheds {}, reopens {})",
        stats.brownout_sheds,
        stats.brownout_reopens
    );
    assert_eq!(
        stats.jobs_rejected, sheds as u64,
        "[soak] jobs_rejected must equal the shed count"
    );
    assert_eq!(
        stats.jobs_admitted,
        reports.len() as u64,
        "[soak] every dispatched job reports, nothing else is admitted"
    );
    assert_eq!(
        stats.jobs_deadline_missed, ROUNDS as u64,
        "[soak] one expired deadline per round"
    );
    assert_eq!(
        stats.jobs_cancelled,
        // Queued cancels + expired deadlines + the one mid-run cancel.
        (ROUNDS + ROUNDS + 1) as u64,
        "[soak] cancellation counter does not reconcile"
    );

    // Per-job traffic windows stay within machine totals and cover the
    // overwhelming share of payload traffic.
    let wire_after = totals(&machine_stats);
    let machine_bytes = wire_after.bytes_sent - wire_before.bytes_sent;
    let job_bytes: u64 = reports
        .iter()
        .filter_map(|r| r.exec.as_ref())
        .map(|e| e.traffic.bytes_sent)
        .sum();
    assert!(
        job_bytes <= machine_bytes,
        "[soak] job windows are disjoint: {job_bytes} attributed of {machine_bytes}"
    );
    assert!(
        job_bytes * 10 >= machine_bytes * 8,
        "[soak] per-job attribution covers < 80% of machine bytes \
         ({job_bytes} of {machine_bytes})"
    );

    // Full reclamation: no leaked columns, no buffer-pool quota held.
    let leaked = engine.live_prop_ids();
    assert!(
        leaked.is_empty(),
        "[soak] sessions left property columns behind: {leaked:?}"
    );
    drop(engine);
    // Per-machine counters may be net donors/creditors (peers recycle each
    // other's payloads), but the cluster-wide sum is an exact in-flight
    // count and must be zero once the server is down.
    let net_quota: i64 = pools.iter().map(|p| p.outstanding()).sum();
    assert_eq!(
        net_quota,
        0,
        "[soak] buffer-pool quota not fully reclaimed: net {net_quota} \
         (per machine: {:?})",
        pools.iter().map(|p| p.outstanding()).collect::<Vec<_>>()
    );

    // ====================== recovery phase ==============================
    eprintln!("[soak] running 'recovery chaos: ring fallback + quarantine'");
    let storage = StorageFaultPlan::faulty(fallback_seed(), 0, 500, 0);
    let chaos_config = || {
        Config::builder()
            .machines(MACHINES)
            .workers(2)
            .copiers(1)
            .fault(FaultPlan::lossy(SOAK_SEED, 10, 10, 30))
            .storage_fault(storage)
            .checkpoint_every(1)
            .checkpoint_retain(4)
            .flap_threshold(2)
            .max_retries(5)
            .telemetry(TelemetryConfig::on())
            .build()
            .expect("chaos config")
    };

    // Flap at (attempt 1, iter 5): checkpoints 3–5 are corrupt by the
    // dice, so the driver must skip them and restore checkpoint 2. Flap
    // again at (attempt 2, iter 6): second trip ⇒ quarantine ⇒ degraded
    // restore on P−1 survivors. Attempt 3 runs to convergence.
    let budget = Arc::new(RetryBudget::new(8, 600_000));
    let driver = RecoveryDriver::new(&graph, chaos_config()).expect("driver");
    let mut algo = chaos_pagerank(&[(1, 5), (2, 6)], None);
    let rec = driver
        .with_retry_budget(Arc::clone(&budget))
        .run(&mut algo)
        .expect("[soak] chaos plan must be survivable");
    let rec_delta = max_delta(&baseline, &rec.output.scores);
    assert!(
        rec_delta <= TOLERANCE,
        "[soak] recovered PageRank diverged from the fault-free fixpoint: {rec_delta:e}"
    );
    assert_eq!(
        rec.output.iterations, PR_ITERS,
        "[soak] recovered run must complete every iteration"
    );
    assert_eq!(rec.attempts, 3, "[soak] exactly two flaps were injected");
    assert_eq!(rec.recoveries, 2);
    assert_eq!(
        rec.stats.checkpoint_fallbacks, 5,
        "[soak] the scheduled corruption pattern forces 3 + 2 ring fallbacks"
    );
    assert_eq!(
        rec.stats.machines_quarantined, 1,
        "[soak] the second flap must quarantine machine 1"
    );
    assert!(
        rec.stats.restores_applied >= 2,
        "[soak] both recoveries must restore from the ring"
    );
    assert_eq!(
        rec.stats.cold_restarts, 0,
        "[soak] a clean ring entry always exists — no cold restart"
    );
    assert!(
        rec.stats.ckpt_shards_corrupted > 0,
        "[soak] storage corruption telemetry is zero"
    );
    assert_eq!(
        budget.tokens(),
        6,
        "[soak] two retries must each spend one budget token"
    );

    // A one-token budget against a machine that flaps on every attempt:
    // the second flap finds the bucket dry and the job must fail with the
    // structured exhaustion error, not retry-storm.
    eprintln!("[soak] running 'driver retry-budget exhaustion'");
    let tiny = Arc::new(RetryBudget::new(1, 600_000));
    let driver = RecoveryDriver::new(&graph, chaos_config()).expect("driver");
    let mut hopeless = chaos_pagerank(&[], Some(3));
    let err = driver
        .with_retry_budget(Arc::clone(&tiny))
        .run(&mut hopeless)
        .expect_err("[soak] a permanent flap on a one-token budget must fail");
    assert!(
        matches!(err, JobError::RetryBudgetExhausted),
        "[soak] expected RetryBudgetExhausted, got {err}"
    );
    assert_eq!(tiny.exhausted_events(), 1);

    // --- the no-hang bound ----------------------------------------------
    let elapsed = t_start.elapsed();
    assert!(
        elapsed < WALL_BOUND,
        "[soak] soak took {:.1}s — over the {:.0}s wall-clock bound",
        elapsed.as_secs_f64(),
        WALL_BOUND.as_secs_f64()
    );
}

/// The fallback seed search terminates and its pattern is what the
/// recovery scenario relies on.
#[test]
fn fallback_seed_pattern_is_scheduled() {
    let p = StorageFaultPlan::faulty(fallback_seed(), 0, 500, 0);
    for c in 0..3 {
        assert_eq!(p.draw(c), StorageFaultKind::Store);
    }
    for c in 3..6 {
        assert_eq!(p.draw(c), StorageFaultKind::Corrupt);
    }
}
