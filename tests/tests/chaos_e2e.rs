//! Chaos acceptance tests: the reliability protocol under deterministic
//! fault injection.
//!
//! * Property: any plan of drops/duplicates/reorders (crash disabled)
//!   yields **bit-identical** results to a fault-free run. Hop-distance is
//!   the probe kernel — its `i64` `Min`-reductions are order-independent,
//!   so exactly-once delivery implies exact equality (no f64 slack).
//! * The same contract on an `f64` `Sum`: PageRank-pull under a fixed
//!   lossy plan lands within 1e-9 of the fault-free scores. A duplicate
//!   applied twice is invisible to `Min` but not to a sum.
//! * Under `strict_distributed` the in-process machines end every phase on
//!   the termination wave, whose frames ride the same lossy fabric outside
//!   the reliability protocol: the results still match a fault-free run.
//! * Integration: crashing one machine of four mid-job surfaces
//!   `Err(JobError::MachineDown)` in bounded time, every thread joins at
//!   teardown, and the cluster stays cleanly dead afterwards.

use pgxd::{BuildEngine, Engine, FaultPlan, JobError, TelemetryConfig};
use pgxd_algorithms::{try_hopdist, try_pagerank_pull};
use pgxd_graph::generate;
use pgxd_runtime::fault::FaultInjector;
use pgxd_runtime::message::{Envelope, MsgKind};
use proptest::prelude::*;
use std::time::{Duration, Instant};

const MACHINES: usize = 4;

/// An in-memory engine under `plan`. An active plan runs the reliability
/// protocol; the fault-free reference runs without it.
fn engine_with(plan: FaultPlan, g: &pgxd_graph::Graph) -> Engine {
    Engine::builder()
        .machines(MACHINES)
        .workers(2)
        .fault(plan)
        .engine(g)
        .expect("engine")
}

/// The indices, among a run's reliable sends, of `plan`'s first reliable
/// drop and first reliable duplicate. Reliable kinds roll their fault dice
/// on their own send index, so these depend on the seed alone: a run that
/// sends more reliable envelopes than the larger index is hit by both,
/// however many acks, heartbeats and wave frames interleave.
fn first_reliable_drop_and_dup(plan: FaultPlan) -> (u64, u64) {
    let injector = FaultInjector::new(plan);
    let (mut drop, mut dup) = (None, None);
    let mut out = Vec::new();
    for k in 0..1_000u64 {
        out.clear();
        let env = Envelope {
            src: 0,
            dst: 1,
            kind: MsgKind::Write,
            worker: 0,
            side_id: 0,
            seq: 0,
            payload: Vec::new(),
        };
        injector.process(env, &mut out);
        let c = injector.counters();
        if c.dropped_reliable > 0 {
            drop.get_or_insert(k);
        }
        if c.duplicated_reliable > 0 {
            dup.get_or_insert(k);
        }
        if let (Some(d), Some(u)) = (drop, dup) {
            return (d, u);
        }
    }
    panic!("{plan:?} neither drops nor duplicates within 1 000 reliable sends");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Exactly-once delivery: results never depend on the fault schedule.
    #[test]
    fn lossy_plans_preserve_results_bit_for_bit(
        seed in any::<u64>(),
        drop in 0u16..80,
        dup in 0u16..80,
        reorder in 0u16..80,
    ) {
        let g = generate::rmat(7, 6, generate::RmatParams::skewed(), 77);

        let mut clean = engine_with(FaultPlan::none(), &g);
        let baseline = try_hopdist(&mut clean, 0).unwrap();

        let plan = FaultPlan::lossy(seed, drop, dup, reorder);
        let mut chaotic = engine_with(plan, &g);
        let r = try_hopdist(&mut chaotic, 0).unwrap();

        // i64 Min-reduction: equality is exact, not approximate.
        prop_assert_eq!(&baseline.hops, &r.hops);
        prop_assert_eq!(baseline.iterations, r.iterations);

        // Every dropped *reliable* envelope must have been repaired by a
        // retransmit (dropped heartbeats/acks don't oblige one).
        let injected = chaotic.cluster().fabric().fault_counters().unwrap_or_default();
        let stats = chaotic.cluster().total_stats();
        if injected.dropped_reliable > 0 {
            prop_assert!(
                stats.retransmits > 0,
                "{} reliable drops injected but nothing was retransmitted",
                injected.dropped_reliable
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The worst non-lossy schedule the fabric can produce: EVERY reliable
    /// envelope duplicated and EVERY envelope reordered (both rates at
    /// 1000‰), simultaneously. The dedup/ack windows must map the flood
    /// onto exactly-once delivery — bit-identical results — for any seed.
    #[test]
    fn max_rate_dup_reorder_is_exactly_once(seed in any::<u64>()) {
        let g = generate::rmat(7, 6, generate::RmatParams::skewed(), 77);

        let mut clean = engine_with(FaultPlan::none(), &g);
        let baseline = try_hopdist(&mut clean, 0).unwrap();

        let mut chaotic = engine_with(FaultPlan::lossy(seed, 0, 1000, 1000), &g);
        let r = try_hopdist(&mut chaotic, 0).unwrap();
        prop_assert_eq!(&baseline.hops, &r.hops);
        prop_assert_eq!(baseline.iterations, r.iterations);

        let injected = chaotic.cluster().fabric().fault_counters().unwrap_or_default();
        prop_assert!(
            injected.duplicated_reliable > 0,
            "a 1000‰ dup rate injected no duplicates"
        );
        let stats = chaotic.cluster().total_stats();
        prop_assert!(
            stats.dup_suppressed >= injected.duplicated_reliable,
            "every injected duplicate must hit a dedup window \
             ({} injected, {} suppressed)",
            injected.duplicated_reliable,
            stats.dup_suppressed
        );
    }
}

/// Kill one machine of four mid-iteration: the run must fail — not hang —
/// with a structured `MachineDown`, within the watchdog deadline, and the
/// engine must still tear down (joining all threads) afterwards.
#[test]
fn machine_crash_fails_cleanly_without_hanging() {
    // The scenario runs on a helper thread so a protocol bug that hangs
    // the cluster fails this test instead of wedging the whole suite.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let g = generate::rmat(8, 6, generate::RmatParams::skewed(), 78);
        let mut engine = engine_with(FaultPlan::crash(2, 1_000), &g);

        let t0 = Instant::now();
        let first = try_pagerank_pull(&mut engine, 0.85, 50, 0.0);
        let elapsed = t0.elapsed();

        // A second job on the dead cluster must fail fast with the same
        // error, not attempt to run.
        let t1 = Instant::now();
        let second = try_pagerank_pull(&mut engine, 0.85, 50, 0.0);
        let fast = t1.elapsed();

        drop(engine); // joins every worker/copier/poller thread
        let _ = tx.send((first, elapsed, second, fast));
    });

    let (first, elapsed, second, fast) = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("crash scenario hung: threads never joined");

    match first {
        Err(JobError::MachineDown { machine }) => {
            assert_eq!(machine, 2, "blame must land on the crashed machine")
        }
        other => panic!("expected MachineDown, got {other:?}"),
    }
    // Watchdog deadline is 500ms; allow generous slack for a loaded CI
    // host, but far below "hung".
    assert!(
        elapsed < Duration::from_secs(60),
        "abort took {elapsed:?} — watchdog missed"
    );
    assert!(
        matches!(second, Err(JobError::MachineDown { .. })),
        "aborted cluster must stay dead, got {second:?}"
    );
    assert!(
        fast < Duration::from_secs(5),
        "post-abort job should fail immediately, took {fast:?}"
    );
}

/// The lossy sweep at a fixed, aggressive rate — an anchor alongside the
/// randomized property. The seed drops one of the first few reliable
/// envelopes and duplicates another, and the job sends far more than that,
/// so the telemetry assertions hold by construction, whatever the timing.
#[test]
fn aggressive_fixed_plan_is_exactly_once() {
    let plan = FaultPlan::lossy(0xDEAD_BEEF, 150, 100, 50);
    let (first_drop, first_dup) = first_reliable_drop_and_dup(plan);
    assert!(
        first_drop.max(first_dup) < 8,
        "the seed must hit within the job's first reliable sends \
         (first drop {first_drop}, first dup {first_dup})"
    );

    let g = generate::rmat(9, 8, generate::RmatParams::skewed(), 79);
    let mut clean = engine_with(FaultPlan::none(), &g);
    let baseline = try_hopdist(&mut clean, 0).unwrap();

    let mut chaotic = engine_with(plan, &g);
    let r = try_hopdist(&mut chaotic, 0).unwrap();
    assert_eq!(baseline.hops, r.hops);

    let injected = chaotic
        .cluster()
        .fabric()
        .fault_counters()
        .unwrap_or_default();
    assert!(injected.dropped_reliable > 0, "plan injected no data drops");
    assert!(
        injected.duplicated_reliable > 0,
        "plan injected no data dups"
    );
    let stats = chaotic.cluster().total_stats();
    assert!(stats.retransmits > 0, "15% drops must force retransmits");
    assert!(
        stats.dup_suppressed > 0,
        "10% dups must trip the dedup windows"
    );
}

/// The f64 probe: PageRank-pull under 3% drop + 2% dup + 2% reorder
/// converges to the fault-free fixpoint. Delivery is exactly-once, so only
/// summation order may differ (1e-9); an entry delivered twice or never
/// would move a score by orders of magnitude more.
#[test]
fn lossy_plan_converges_to_fault_free_pagerank() {
    let g = generate::rmat(10, 8, generate::RmatParams::skewed(), 80);
    let mut clean = engine_with(FaultPlan::none(), &g);
    let baseline = try_pagerank_pull(&mut clean, 0.85, 10, 0.0).unwrap();

    let mut chaotic = engine_with(FaultPlan::lossy(0xC4A0_5EED, 30, 20, 20), &g);
    let r = try_pagerank_pull(&mut chaotic, 0.85, 10, 0.0).unwrap();
    assert_eq!(r.iterations, baseline.iterations);
    for (v, (a, b)) in baseline.scores.iter().zip(&r.scores).enumerate() {
        assert!((a - b).abs() <= 1e-9, "vertex {v}: clean {a} vs lossy {b}");
    }

    let stats = chaotic.cluster().total_stats();
    assert!(stats.retransmits > 0, "3% drops must force retransmits");
    assert!(
        stats.dup_suppressed > 0,
        "2% dups must trip the dedup windows"
    );
}

/// The termination wave in-process: three machines under
/// `strict_distributed` end every phase on reports, probes and releases
/// carried by the real copier path while the fault plan drops, duplicates
/// and reorders them (and the data they count). Hop distance stays
/// bit-identical to the fault-free default path and PageRank-pull within
/// 1e-9; the release-wait histogram proves the wave, not the shared
/// counter, ended the phases.
#[test]
fn strict_mode_runs_the_wave_in_process_under_faults() {
    let g = generate::rmat(9, 8, generate::RmatParams::skewed(), 81);
    let builder = || Engine::builder().machines(3).workers(2);
    let mut clean = builder().engine(&g).expect("engine");
    let hops = try_hopdist(&mut clean, 0).unwrap();
    let scores = try_pagerank_pull(&mut clean, 0.85, 10, 0.0).unwrap();

    let mut waved = builder()
        .strict_distributed(true)
        .fault(FaultPlan::lossy(0x5EED_3A7E, 100, 50, 50))
        .telemetry(TelemetryConfig::on())
        .engine(&g)
        .expect("engine");
    let r = try_hopdist(&mut waved, 0).unwrap();
    assert_eq!(hops.hops, r.hops);
    assert_eq!(hops.iterations, r.iterations);
    let r = try_pagerank_pull(&mut waved, 0.85, 10, 0.0).unwrap();
    for (v, (a, b)) in scores.scores.iter().zip(&r.scores).enumerate() {
        assert!((a - b).abs() <= 1e-9, "vertex {v}: clean {a} vs waved {b}");
    }

    let releases: u64 = waved
        .cluster()
        .telemetries()
        .iter()
        .map(|t| t.term_release_wait_snapshot().count())
        .sum();
    assert!(releases > 0, "no phase was released by the wave");
    assert!(
        waved.cluster().total_stats().retransmits > 0,
        "10% drops must force retransmits"
    );
}
