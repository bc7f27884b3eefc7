//! Self-verifying reproduction: runs scaled-down versions of the paper's
//! headline experiments and *asserts* the qualitative shapes hold,
//! printing PASS/FAIL per claim. `repro verify` is the one-command answer
//! to "does this reproduction reproduce?".

use crate::datasets::{BenchGraph, Scale};
use crate::experiments::{fig5, fig6, fig8, table4};
use crate::systems::{run, Algo, System, DAMPING, FIXED_ITERS};
use pgxd::BuildEngine;
use pgxd_baselines::sa;
use pgxd_graph::Graph;
use std::hint::black_box;
use std::time::Instant;

/// One checked claim.
#[derive(Clone, Debug)]
pub struct Check {
    /// Short identifier ("T3-ordering", "F6a-traffic", ...).
    pub id: &'static str,
    /// The paper's claim being checked.
    pub claim: &'static str,
    /// Measured evidence, human-readable.
    pub evidence: String,
    /// Whether the shape held.
    pub pass: bool,
}

/// Best (lowest) of N timing measurements — damps single-core noise.
fn best_of<F: FnMut() -> f64>(mut f: F, reps: usize) -> f64 {
    (0..reps.max(1)).map(|_| f()).fold(f64::INFINITY, f64::min)
}

/// Best (highest) of N throughput measurements.
fn peak_of<F: FnMut() -> f64>(mut f: F, reps: usize) -> f64 {
    (0..reps.max(1)).map(|_| f()).fold(0.0, f64::max)
}

fn reported(sys: System, algo: Algo, g: &Graph, machines: usize, reps: usize) -> f64 {
    best_of(
        || run(sys, algo, g, machines).map(|r| r.reported()).unwrap(),
        reps,
    )
}

/// Runs all shape checks at the given scale. Uses best-of-N timing to damp
/// single-core scheduling noise.
pub fn run_checks(scale: Scale) -> Vec<Check> {
    let mut checks = Vec::new();
    let g = BenchGraph::Twt.generate(scale);
    let reps = 3;

    // --- Table 3 / Figure 3: system ordering on PageRank push ---
    let gl = reported(System::Gl, Algo::PrPush, &g, 2, reps);
    let gx = reported(System::Gx, Algo::PrPush, &g, 2, reps);
    let pgx = reported(System::Pgx, Algo::PrPush, &g, 2, reps);
    checks.push(Check {
        id: "T3-pgx-beats-gl",
        claim: "PGX.D faster than GraphLab-class engine (paper: 3-90x)",
        evidence: format!(
            "PGX {:.4}s vs GL {:.4}s per iter ({:.1}x)",
            pgx,
            gl,
            gl / pgx
        ),
        pass: pgx < gl,
    });
    checks.push(Check {
        id: "T3-gl-beats-gx",
        claim: "GraphLab-class faster than GraphX-class (paper: ~10x)",
        evidence: format!("GL {:.4}s vs GX {:.4}s ({:.1}x)", gl, gx, gx / gl),
        pass: gl < gx,
    });
    // Per core: SA on one thread against one machine with one worker, so
    // no simulated machine shares a core with another. Both are best of
    // ten runs taken in turn, so a busy spell of the host hits both sides.
    let (mut sa_core, mut pgx_core) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..10 {
        let t0 = Instant::now();
        black_box(sa::pagerank_push(&g, DAMPING, FIXED_ITERS, 1));
        sa_core = sa_core.min(t0.elapsed().as_secs_f64() / FIXED_ITERS as f64);
        pgx_core = pgx_core.min(reported(System::Pgx, Algo::PrPush, &g, 1, 1));
    }
    checks.push(Check {
        id: "T3-sa-fastest",
        claim: "standalone single-machine execution is the per-core bar",
        evidence: format!("SA {sa_core:.4}s vs PGX {pgx_core:.4}s per iter, 1 core each"),
        pass: sa_core < pgx_core,
    });

    // --- pull vs push ---
    let pull = reported(System::Pgx, Algo::PrPull, &g, 2, reps);
    checks.push(Check {
        id: "T3-pull-beats-push",
        claim: "pull-mode PageRank beats push (no atomic accumulation)",
        evidence: format!("pull {:.4}s vs push {:.4}s per iter", pull, pgx),
        pass: pull < pgx,
    });

    // --- Figure 6a: ghosts cut traffic ---
    let sweep = fig6::sweep_ghosts(&g, 4);
    let (no_ghost, ghosted) = (&sweep[0], &sweep[sweep.len() - 1]);
    checks.push(Check {
        id: "F6a-traffic",
        claim: "ghosting hubs cuts communication traffic",
        evidence: sweep
            .iter()
            .map(|p| format!("{} ghosts: {} B", p.ghosts, p.traffic_bytes))
            .collect::<Vec<_>>()
            .join(", "),
        pass: ghosted.traffic_bytes < no_ghost.traffic_bytes / 2,
    });

    // --- Table 4: binary loading beats text ---
    let load = table4::measure(BenchGraph::Twt, scale, 2).expect("table4");
    checks.push(Check {
        id: "T4-binary-load",
        claim: "binary load (PGX.D) beats text parsing (GL/GX)",
        evidence: format!(
            "binary {:.4}s vs text {:.4}s",
            load.binary_load_secs, load.text_load_secs
        ),
        pass: load.binary_load_secs < load.text_load_secs,
    });

    // --- Figure 5a: SA > PGX >> GL iteration speed ---
    let sa_meps = fig5::sa_edge_iteration_meps(&g, 2);
    let pgx_meps = fig5::pgx_edge_iteration_meps(&g, 2);
    let gl_meps = fig5::gas_edge_iteration_meps(&g, 2);
    checks.push(Check {
        id: "F5a-iteration-order",
        claim: "edge iteration: raw CSR > PGX.D >> GraphLab-class",
        evidence: format!(
            "SA {:.0} / PGX {:.0} / GL {:.0} M edges/s",
            sa_meps, pgx_meps, gl_meps
        ),
        pass: sa_meps > pgx_meps && pgx_meps > gl_meps,
    });

    // --- Figure 8a invariant: utilized = 2x effective ---
    let bw = fig8::remote_read_bandwidth(1, 50_000, 1);
    checks.push(Check {
        id: "F8a-utilized-2x",
        claim: "8B-address/8B-data reads: utilized bandwidth = 2x effective",
        evidence: format!(
            "effective {:.3} GB/s, utilized {:.3} GB/s",
            bw.effective_gbps, bw.utilized_gbps
        ),
        pass: (bw.utilized_gbps - 2.0 * bw.effective_gbps).abs() < 1e-9,
    });

    // --- Figure 8b: large buffers attain more bandwidth ---
    let small = peak_of(|| fig8::flood_bandwidth_gbps(2, 4 << 10, 8 << 20), reps);
    let large = peak_of(|| fig8::flood_bandwidth_gbps(2, 256 << 10, 32 << 20), reps);
    checks.push(Check {
        id: "F8b-buffer-size",
        claim: "large message buffers are required for peak bandwidth",
        evidence: format!("4KB: {:.1} GB/s vs 256KB: {:.1} GB/s", small, large),
        pass: large > small,
    });

    // --- Figure 5b: barriers are cheap relative to iterations ---
    let mut engine = pgxd::Engine::builder()
        .machines(4)
        .workers(1)
        .copiers(1)
        .ghost_threshold(None)
        .engine(&pgxd_graph::generate::ring(64))
        .unwrap();
    engine.barrier_roundtrip();
    let barrier = best_of(|| engine.barrier_roundtrip().as_secs_f64(), 20);
    checks.push(Check {
        id: "F5b-barrier-cheap",
        claim: "barrier latency is small against one algorithm iteration",
        evidence: format!(
            "barrier {:.1} us vs PR iter {:.0} us",
            barrier * 1e6,
            pgx * 1e6
        ),
        pass: barrier < pgx / 10.0,
    });

    checks
}

/// Renders checks as a PASS/FAIL report; returns overall success.
pub fn report(checks: &[Check]) -> (String, bool) {
    let mut out = String::new();
    let mut all = true;
    out.push_str("## Shape verification (paper claims vs this run)\n");
    for c in checks {
        all &= c.pass;
        out.push_str(&format!(
            "[{}] {:<22} {}\n{:29}measured: {}\n",
            if c.pass { "PASS" } else { "FAIL" },
            c.id,
            c.claim,
            "",
            c.evidence
        ));
    }
    out.push_str(&format!(
        "\n{} of {} shape checks passed\n",
        checks.iter().filter(|c| c.pass).count(),
        checks.len()
    ));
    (out, all)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_formats_pass_and_fail() {
        let checks = vec![
            Check {
                id: "a",
                claim: "x",
                evidence: "1 < 2".into(),
                pass: true,
            },
            Check {
                id: "b",
                claim: "y",
                evidence: "3 > 2".into(),
                pass: false,
            },
        ];
        let (s, all) = report(&checks);
        assert!(s.contains("[PASS] a"));
        assert!(s.contains("[FAIL] b"));
        assert!(s.contains("1 of 2"));
        assert!(!all);
    }
}
