//! `repro chaos`: the fault-injection acceptance sweep.
//!
//! Runs PageRank-pull on TWT-S across 4 simulated machines under a series
//! of deterministic [`FaultPlan`]s — from fault-free through drop/dup/
//! reorder mixes to a mid-job machine crash — and checks the reliability
//! protocol's contract:
//!
//! * every plan without a crash **completes** and converges to the
//!   fault-free fixpoint (max |Δ| ≤ 1e-9: delivery is exactly-once, only
//!   f64 summation order can differ);
//! * lossy plans show **nonzero retransmissions** (drops were repaired)
//!   and **nonzero duplicate suppressions** (replays were filtered);
//! * the crash plan **fails cleanly**: `Err(JobError::MachineDown)` within
//!   the watchdog deadline, no hang, every thread joined at teardown.

use crate::datasets::{BenchGraph, Scale};
use crate::report::Table;
use pgxd::{BuildEngine, Engine, FaultPlan, JobError, ReliabilityConfig};
use pgxd_algorithms::try_pagerank_pull;
use std::time::Instant;

/// Simulated machines in the chaos runs.
pub const MACHINES: usize = 4;
/// Seed shared by every plan: the sweep is reproducible end to end.
pub const SEED: u64 = 0xC4A0_5EED;

const DAMPING: f64 = 0.85;
const MAX_ITERS: usize = 20;

/// One chaos scenario: a named fault plan and whether it must complete.
struct Scenario {
    name: &'static str,
    plan: FaultPlan,
    /// `true`: the run must complete with the fault-free result.
    /// `false`: the run must abort with `JobError::MachineDown`.
    completes: bool,
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "fault-free",
            plan: FaultPlan::none(),
            completes: true,
        },
        Scenario {
            name: "drop 1%",
            plan: FaultPlan::lossy(SEED, 10, 0, 0),
            completes: true,
        },
        // The acceptance plan from the issue: 1% drop + 1% dup.
        Scenario {
            name: "drop 1% + dup 1%",
            plan: FaultPlan::lossy(SEED, 10, 10, 0),
            completes: true,
        },
        Scenario {
            name: "drop 3% + dup 2% + reorder 2%",
            plan: FaultPlan::lossy(SEED, 30, 20, 20),
            completes: true,
        },
        Scenario {
            name: "crash machine 1",
            plan: FaultPlan::crash(1, 2_000),
            completes: false,
        },
    ]
}

struct Outcome {
    completed: bool,
    seconds: f64,
    iterations: usize,
    max_delta: Option<f64>,
    scores: Option<Vec<f64>>,
    retransmits: u64,
    dup_suppressed: u64,
    dropped: u64,
    duplicated: u64,
}

fn run_scenario(s: &Scenario, graph: &pgxd_graph::Graph, clean: Option<&[f64]>) -> Outcome {
    let mut engine = Engine::builder()
        .machines(MACHINES)
        .workers(2)
        .copiers(1)
        .fault(s.plan)
        .reliability(ReliabilityConfig::on())
        .engine(graph)
        .expect("engine");
    let t0 = Instant::now();
    let result = try_pagerank_pull(&mut engine, DAMPING, MAX_ITERS, 0.0);
    let seconds = t0.elapsed().as_secs_f64();
    let stats = engine.cluster().total_stats();
    let faults = engine
        .cluster()
        .fabric()
        .fault_counters()
        .unwrap_or_default();
    match result {
        Ok(r) => {
            assert!(
                s.completes,
                "[chaos] '{}' completed but a crash plan must abort",
                s.name
            );
            let max_delta = clean.map(|base| {
                base.iter()
                    .zip(&r.scores)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max)
            });
            if let Some(d) = max_delta {
                assert!(
                    d <= 1e-9,
                    "[chaos] '{}' diverged from the fault-free fixpoint: max |Δ| = {d:e}",
                    s.name
                );
            }
            Outcome {
                completed: true,
                seconds,
                iterations: r.iterations,
                max_delta,
                scores: Some(r.scores),
                retransmits: stats.retransmits,
                dup_suppressed: stats.dup_suppressed,
                dropped: faults.dropped,
                duplicated: faults.duplicated,
            }
        }
        Err(err) => {
            assert!(
                !s.completes,
                "[chaos] '{}' must complete under reliable delivery, got {err}",
                s.name
            );
            assert!(
                matches!(err, JobError::MachineDown { .. }),
                "[chaos] crash plan must surface MachineDown, got {err}"
            );
            Outcome {
                completed: false,
                seconds,
                iterations: 0,
                max_delta: None,
                scores: None,
                retransmits: stats.retransmits,
                dup_suppressed: stats.dup_suppressed,
                dropped: faults.dropped,
                duplicated: faults.duplicated,
            }
        }
    }
    // `engine` drops here: teardown joins every worker/copier/poller
    // thread, so merely returning proves no thread was left hung.
}

/// Runs the sweep and returns the summary table. Panics if any scenario
/// violates the reliability contract (this *is* the acceptance check).
pub fn run_experiment(scale: Scale) -> Vec<Table> {
    let graph = BenchGraph::Twt.generate(scale);
    let mut t = Table::new(
        &format!("Chaos — PageRank-pull on TWT-S × {MACHINES} machines, seed {SEED:#x}"),
        vec![
            "completed".into(),
            "seconds".into(),
            "iters".into(),
            "max|Δ| vs clean".into(),
            "retransmits".into(),
            "dups dropped".into(),
            "injected drops".into(),
            "injected dups".into(),
        ],
        "completed: 1 = converged to fixpoint, 0 = clean MachineDown abort",
    );

    let mut clean_scores: Option<Vec<f64>> = None;
    for s in scenarios() {
        eprintln!("[chaos] running '{}'", s.name);
        let o = run_scenario(&s, &graph, clean_scores.as_deref());
        if clean_scores.is_none() {
            // The first (fault-free) scenario provides the baseline.
            clean_scores.clone_from(&o.scores);
        }
        if s.plan.drop_per_mille > 0 {
            assert!(
                o.retransmits > 0,
                "[chaos] '{}' dropped envelopes but never retransmitted",
                s.name
            );
        }
        if s.plan.dup_per_mille > 0 {
            assert!(
                o.dup_suppressed > 0,
                "[chaos] '{}' duplicated envelopes but never suppressed a replay",
                s.name
            );
        }
        if !s.completes {
            assert!(
                o.seconds < 30.0,
                "[chaos] crash abort took {:.1}s — watchdog missed its deadline",
                o.seconds
            );
        }
        t.push_row(
            s.name,
            vec![
                Some(if o.completed { 1.0 } else { 0.0 }),
                Some(o.seconds),
                Some(o.iterations as f64),
                o.max_delta,
                Some(o.retransmits as f64),
                Some(o.dup_suppressed as f64),
                Some(o.dropped as f64),
                Some(o.duplicated as f64),
            ],
        );
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The issue's acceptance scenario end to end: 1% drop + 1% dup on a
    /// fixed seed completes with the fault-free result and nonzero
    /// retransmit + dup-suppression telemetry. `run_experiment` asserts
    /// internally; reaching the end is the pass condition.
    #[test]
    fn chaos_sweep_passes_at_quick_scale() {
        let tables = run_experiment(Scale::Quick);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), scenarios().len());
    }
}
