//! Recovery acceptance tests: checkpoint/restore plus automatic retry
//! survive a machine crash instead of reporting it.
//!
//! * Property: a crash at an arbitrary seeded point of the job never
//!   changes the answer. Hop-distance is the probe kernel — its `i64`
//!   `Min`-reductions make equality exact, so "recovered == fault-free"
//!   is bit-for-bit, whether the crash lands before the first checkpoint
//!   (clean restart on survivors), mid-stream (restore + resume), or not
//!   at all (single attempt).
//! * Integration: a PageRank run that loses one machine of four restores
//!   from the last checkpoint onto the three survivors and converges to
//!   the fault-free fixpoint within f64 summation-order noise.
//! * With recovery disabled the PR-3 contract is unchanged: a clean
//!   `Err(MachineDown)`, no retry.

use pgxd::{BuildEngine, Config, Engine, FaultPlan, JobError, RecoveryDriver, TelemetryConfig};
use pgxd_algorithms::{try_hopdist, try_pagerank_pull, ResumableHopDist, ResumablePageRank};
use pgxd_graph::generate;
use proptest::prelude::*;

const MACHINES: usize = 4;

fn recovery_config(crash_machine: u16, crash_after_sends: u64) -> Config {
    Config::builder()
        .machines(MACHINES)
        .workers(2)
        .copiers(1)
        .fault(FaultPlan::crash(crash_machine, crash_after_sends))
        .telemetry(TelemetryConfig::on())
        .checkpoint_every(2)
        .max_retries(3)
        .build()
        .expect("config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Crash at a seeded random point (any machine, any send count):
    /// the recovered BFS equals the fault-free run bit-for-bit.
    #[test]
    fn crash_at_seeded_phase_recovers_exactly(
        machine in 0u16..MACHINES as u16,
        crash_after in 200u64..4_000,
    ) {
        let g = generate::rmat(7, 6, generate::RmatParams::skewed(), 87);
        let mut clean = Engine::builder()
            .machines(MACHINES)
            .workers(2)
            .engine(&g)
            .expect("engine");
        let baseline = try_hopdist(&mut clean, 0).unwrap();
        drop(clean);

        let rec = RecoveryDriver::new(&g, recovery_config(machine, crash_after))
            .expect("driver")
            .run(&mut ResumableHopDist::new(0))
            .expect("recovery must succeed within the retry budget");
        prop_assert_eq!(&rec.output.hops, &baseline.hops);
        prop_assert_eq!(rec.output.iterations, baseline.iterations);
        if rec.attempts > 1 {
            // The retry ran on the P−1 survivors after a real crash.
            prop_assert!(rec.recoveries >= 1);
            prop_assert!(rec.stats.restores_applied > 0 || rec.recoveries >= 1);
        }
    }
}

/// One machine of four dies mid-PageRank: the job restores from the last
/// checkpoint onto the three survivors and converges to the fault-free
/// fixpoint (difference is f64 summation-order noise only).
#[test]
fn pagerank_recovers_to_fault_free_fixpoint() {
    let g = generate::rmat(8, 6, generate::RmatParams::skewed(), 88);
    let mut clean = Engine::builder()
        .machines(MACHINES)
        .workers(2)
        .engine(&g)
        .expect("engine");
    let baseline = try_pagerank_pull(&mut clean, 0.85, 30, 0.0).unwrap();
    drop(clean);

    let rec = RecoveryDriver::new(&g, recovery_config(1, 1_000))
        .expect("driver")
        .run(&mut ResumablePageRank::pull(0.85, 30, 0.0))
        .expect("recovery must succeed within the retry budget");
    assert!(rec.attempts > 1, "crash plan never fired — job too small");
    assert!(rec.recoveries >= 1);
    assert!(
        rec.recovery_done_events >= 1,
        "RecoveryDone must be traced on the surviving cluster"
    );
    assert!(rec.stats.checkpoints_taken > 0, "no checkpoints were taken");
    assert!(rec.stats.checkpoint_bytes > 0);
    assert!(rec.stats.restores_applied > 0, "restore never ran");
    assert_eq!(rec.output.iterations, baseline.iterations);
    for (a, b) in rec.output.scores.iter().zip(&baseline.scores) {
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }
}

/// With recovery off, behavior is unchanged from PR 3: the crash surfaces
/// as a structured `MachineDown` after one attempt, no retry, no
/// checkpoints.
#[test]
fn recovery_disabled_fails_cleanly() {
    let g = generate::rmat(8, 6, generate::RmatParams::skewed(), 88);
    let config = Config::builder()
        .machines(MACHINES)
        .workers(2)
        .copiers(1)
        .fault(FaultPlan::crash(2, 2_000))
        .build()
        .expect("config");
    let err = RecoveryDriver::new(&g, config)
        .expect("driver")
        .run(&mut ResumablePageRank::pull(0.85, 50, 0.0))
        .expect_err("crash with recovery off must abort");
    assert!(
        matches!(err, JobError::MachineDown { machine: 2 }),
        "expected MachineDown, got {err:?}"
    );
}
