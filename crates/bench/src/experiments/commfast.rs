//! `repro commfast`: the communication fast-path acceptance check.
//!
//! Runs PageRank-pull on TWT-S across 4 simulated machines with read
//! combining off and on, and checks the fast path's contract:
//!
//! * the combining run reports **nonzero** `combined_read_hits` (duplicate
//!   in-flight reads were actually deduplicated) while the plain run
//!   reports zero;
//! * combining puts **strictly fewer** request messages and read entries
//!   on the wire;
//! * scores agree to within f64 *reassociation noise* (≤ 1e-12): response
//!   arrival order across destinations is timing-dependent, so per-node
//!   sums reassociate between any two runs — even two runs of the *same*
//!   configuration differ in the last bits. Combining must not add error
//!   beyond that floor;
//! * on a symmetric star graph — where every per-node sum is provably
//!   order-independent, so a correct engine is bit-deterministic —
//!   combining on and off produce **bit-identical** scores while still
//!   deduplicating heavily (every spoke pulls the same hub vertex). Any
//!   dropped, duplicated, or mis-fanned-out read value would change the
//!   bits.
//!
//! The value-level guarantee (every continuation sees the exact bits of
//! its own request's answer, combining on or off) is proven per-buffer by
//! the `combining_is_bit_identical` proptest in `pgxd-runtime`.

use crate::datasets::{BenchGraph, Scale};
use crate::report::Table;
use pgxd::{BuildEngine, Engine, StatsSnapshot};
use pgxd_algorithms::try_pagerank_pull;
use std::time::Instant;

/// Simulated machines in the commfast runs.
pub const MACHINES: usize = 4;

const DAMPING: f64 = 0.85;
const MAX_ITERS: usize = 10;
/// Small buffers force frequent seals, so the per-buffer combining table
/// sees real pressure.
const BUFFER_BYTES: usize = 1 << 10;
/// Two runs may reassociate f64 sums but must agree to this tolerance —
/// orders of magnitude below the scores themselves (~1e-4 on TWT-S).
const REASSOCIATION_TOL: f64 = 1e-12;

struct Run {
    name: &'static str,
    scores: Vec<f64>,
    stats: StatsSnapshot,
    seconds: f64,
}

fn run_once(graph: &pgxd_graph::Graph, name: &'static str, combining: bool) -> Run {
    let mut engine = Engine::builder()
        .machines(MACHINES)
        .workers(2)
        .copiers(1)
        .buffer_bytes(BUFFER_BYTES)
        .read_combining(combining)
        .engine(graph)
        .expect("engine");
    let t0 = Instant::now();
    let r = try_pagerank_pull(&mut engine, DAMPING, MAX_ITERS, 0.0).expect("pagerank-pull job");
    Run {
        name,
        scores: r.scores,
        stats: engine.cluster().total_stats(),
        seconds: t0.elapsed().as_secs_f64(),
    }
}

fn max_abs_delta(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

fn bit_identical(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The star-graph bit-exactness check: every spoke has exactly one
/// in-neighbor (the hub) and all spokes stay symmetric, so per-node sums
/// are order-independent and the run is bit-deterministic end to end.
fn check_star_bit_identity() {
    let g = pgxd_graph::generate::star(2048);
    let plain = run_once(&g, "star plain", false);
    let combined = run_once(&g, "star combined", true);
    assert!(
        combined.stats.combined_read_hits > 0,
        "[commfast] every spoke pulls the hub: the star run must combine"
    );
    assert!(
        bit_identical(&plain.scores, &combined.scores),
        "[commfast] combining changed bit-deterministic star scores"
    );
}

/// Runs the sweep and returns the summary table. Panics if any
/// configuration violates the fast-path contract (this *is* the
/// acceptance check).
pub fn run_experiment(scale: Scale) -> Vec<Table> {
    check_star_bit_identity();

    let graph = BenchGraph::Twt.generate(scale);
    let plain = run_once(&graph, "combining off", false);
    let combined = run_once(&graph, "combining on", true);

    assert_eq!(
        plain.stats.combined_read_hits, 0,
        "[commfast] combining off must report zero hits"
    );
    assert!(
        combined.stats.combined_read_hits > 0,
        "[commfast] combining on must deduplicate at least one in-flight read"
    );
    assert!(
        combined.stats.read_entries < plain.stats.read_entries,
        "[commfast] combining must put strictly fewer read entries on the wire \
         ({} vs {})",
        combined.stats.read_entries,
        plain.stats.read_entries
    );
    assert!(
        combined.stats.msgs_sent < plain.stats.msgs_sent,
        "[commfast] combining must send strictly fewer request messages \
         ({} vs {})",
        combined.stats.msgs_sent,
        plain.stats.msgs_sent
    );
    let d = max_abs_delta(&plain.scores, &combined.scores);
    assert!(
        d <= REASSOCIATION_TOL,
        "[commfast] '{}' diverged beyond f64 reassociation noise: max |Δ| = {d:e}",
        combined.name
    );

    let mut t = Table::new(
        &format!("Commfast — PageRank-pull on TWT-S × {MACHINES} machines"),
        vec![
            "seconds".into(),
            "msgs sent".into(),
            "read entries".into(),
            "combined hits".into(),
            "max |Δ| vs plain".into(),
        ],
        "fast-path acceptance: hits > 0, strictly fewer messages, scores within 1e-12",
    );
    for run in [&plain, &combined] {
        t.push_row(
            run.name,
            vec![
                Some(run.seconds),
                Some(run.stats.msgs_sent as f64),
                Some(run.stats.read_entries as f64),
                Some(run.stats.combined_read_hits as f64),
                Some(max_abs_delta(&plain.scores, &run.scores)),
            ],
        );
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full acceptance sweep at quick scale — the asserts inside
    /// `run_experiment` are the checks.
    #[test]
    fn commfast_contract_holds() {
        let tables = run_experiment(Scale::Quick);
        assert_eq!(tables.len(), 1);
    }
}
