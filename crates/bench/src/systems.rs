//! Uniform runner over the four systems of Table 3: SA (standalone), GL
//! (GraphLab-class GAS), GX (GraphX-class dataflow), and PGX.D.

use pgxd::{BuildEngine, ChunkingMode, Engine, PartitioningMode};
use pgxd_baselines::programs::{self, Comparator};
use pgxd_baselines::{sa, seq};
use pgxd_graph::Graph;
use std::time::Instant;

/// Fixed iteration count for the per-iteration algorithms (PageRank exact
/// and EigenVector), as the paper reports average per-iteration time.
pub const FIXED_ITERS: usize = 5;
/// Damping factor used everywhere.
pub const DAMPING: f64 = 0.85;
/// Deactivation threshold of approximate PageRank.
pub const APPROX_THRESHOLD: f64 = 1e-7;
/// Root vertex for SSSP / HopDist.
pub const ROOT: u32 = 0;

/// The system under measurement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum System {
    /// Single-machine standalone (direct CSR + parallel loops).
    Sa,
    /// GraphX-class dataflow comparator.
    Gx,
    /// GraphLab-class GAS comparator.
    Gl,
    /// The PGX.D reproduction.
    Pgx,
}

impl System {
    /// Row label used in the tables.
    pub fn name(self) -> &'static str {
        match self {
            System::Sa => "SA",
            System::Gx => "GX",
            System::Gl => "GL",
            System::Pgx => "PGX",
        }
    }

    /// All systems in the paper's row order.
    pub fn all() -> [System; 4] {
        [System::Sa, System::Gx, System::Gl, System::Pgx]
    }
}

/// The algorithms of Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    PrPull,
    PrPush,
    PrApprox,
    Wcc,
    Sssp,
    HopDist,
    Ev,
    KCore,
}

impl Algo {
    /// Column label.
    pub fn name(self) -> &'static str {
        match self {
            Algo::PrPull => "PR(pull)",
            Algo::PrPush => "PR(push)",
            Algo::PrApprox => "PR(approx)",
            Algo::Wcc => "WCC",
            Algo::Sssp => "SSSP",
            Algo::HopDist => "HopDist",
            Algo::Ev => "EV",
            Algo::KCore => "KCore",
        }
    }

    /// All algorithms in the paper's column order.
    pub fn all() -> [Algo; 8] {
        [
            Algo::PrPull,
            Algo::PrPush,
            Algo::PrApprox,
            Algo::Wcc,
            Algo::Sssp,
            Algo::HopDist,
            Algo::Ev,
            Algo::KCore,
        ]
    }

    /// Whether the algorithm needs edge weights.
    pub fn needs_weights(self) -> bool {
        matches!(self, Algo::Sssp)
    }
}

/// One measurement.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Total wall seconds of the algorithm (excluding load/engine setup).
    pub seconds: f64,
    /// Seconds per iteration where Table 3 reports per-iteration numbers.
    pub per_iter_seconds: Option<f64>,
    /// Iterations/steps executed.
    pub iterations: usize,
    /// A checksum of the result (guards against dead-code elimination and
    /// lets the harness assert cross-system agreement).
    pub checksum: f64,
}

impl RunResult {
    /// The value Table 3 reports: per-iteration seconds where applicable,
    /// total seconds otherwise.
    pub fn reported(&self) -> f64 {
        self.per_iter_seconds.unwrap_or(self.seconds)
    }
}

fn result(seconds: f64, iterations: usize, per_iter: bool, checksum: f64) -> RunResult {
    RunResult {
        seconds,
        per_iter_seconds: if per_iter && iterations > 0 {
            Some(seconds / iterations as f64)
        } else {
            None
        },
        iterations,
        checksum,
    }
}

fn checksum_f64(v: &[f64]) -> f64 {
    v.iter().filter(|x| x.is_finite()).sum()
}

fn checksum_u32(v: &[u32]) -> f64 {
    v.iter().map(|&x| x as f64).sum()
}

fn checksum_i64(v: &[i64]) -> f64 {
    v.iter()
        .filter(|&&x| x != i64::MAX)
        .map(|&x| x as f64)
        .sum()
}

/// Threads used by the standalone baseline (the paper's SA uses all cores
/// of one machine).
pub const SA_THREADS: usize = 4;

/// Builds a PGX.D engine for a benchmark run: `machines` machines with the
/// default 1 worker + 1 copier each (thread counts can be varied by
/// building the engine directly, as the Figure 7 sweep does).
pub fn pgx_engine(g: &Graph, machines: usize) -> Engine {
    Engine::builder()
        .machines(machines)
        .workers(1)
        .copiers(1)
        .buffer_bytes(64 << 10)
        .chunk_edges(8 * 1024)
        .ghost_threshold(Some(256))
        .partitioning(PartitioningMode::Edge)
        .chunking(ChunkingMode::Edge)
        .engine(g)
        .expect("engine construction")
}

/// Runs `algo` on `system` over `g` with `machines` machines. SSSP
/// requires `g` to carry edge weights (use [`weighted`]).
pub fn run(system: System, algo: Algo, g: &Graph, machines: usize) -> Option<RunResult> {
    match system {
        System::Sa => Some(run_sa(algo, g)),
        System::Gl => run_comparator(Comparator::Gas, algo, g, machines),
        System::Gx => run_comparator(Comparator::Dataflow, algo, g, machines),
        System::Pgx => {
            let mut engine = pgx_engine(g, machines);
            Some(run_pgx(&mut engine, algo))
        }
    }
}

/// Attaches the uniform random weights the paper uses for SSSP.
pub fn weighted(g: &Graph) -> Graph {
    g.clone().with_uniform_weights(1.0, 10.0, 0x5EED)
}

fn run_sa(algo: Algo, g: &Graph) -> RunResult {
    let t = SA_THREADS;
    let t0 = Instant::now();
    match algo {
        Algo::PrPull => {
            let pr = sa::pagerank_pull(g, DAMPING, FIXED_ITERS, t);
            result(
                t0.elapsed().as_secs_f64(),
                FIXED_ITERS,
                true,
                checksum_f64(&pr),
            )
        }
        Algo::PrPush => {
            let pr = sa::pagerank_push(g, DAMPING, FIXED_ITERS, t);
            result(
                t0.elapsed().as_secs_f64(),
                FIXED_ITERS,
                true,
                checksum_f64(&pr),
            )
        }
        Algo::PrApprox => {
            let (pr, iters) = sa::pagerank_approx(g, DAMPING, APPROX_THRESHOLD, t);
            result(t0.elapsed().as_secs_f64(), iters, true, checksum_f64(&pr))
        }
        Algo::Wcc => {
            let c = sa::wcc(g, t);
            result(t0.elapsed().as_secs_f64(), 1, false, checksum_u32(&c))
        }
        Algo::Sssp => {
            let d = sa::sssp(g, ROOT, t);
            result(t0.elapsed().as_secs_f64(), 1, false, checksum_f64(&d))
        }
        Algo::HopDist => {
            let h = sa::hopdist(g, ROOT, t);
            result(t0.elapsed().as_secs_f64(), 1, false, checksum_i64(&h))
        }
        Algo::Ev => {
            let e = sa::eigenvector(g, FIXED_ITERS, t);
            result(
                t0.elapsed().as_secs_f64(),
                FIXED_ITERS,
                true,
                checksum_f64(&e),
            )
        }
        Algo::KCore => {
            let (k, _c) = sa::kcore(g, t);
            result(t0.elapsed().as_secs_f64(), 1, false, k as f64)
        }
    }
}

fn run_comparator(engine: Comparator, algo: Algo, g: &Graph, machines: usize) -> Option<RunResult> {
    let t0 = Instant::now();
    Some(match algo {
        Algo::PrPull => return None, // push-only frameworks (§2)
        Algo::PrPush => {
            let pr = programs::pagerank(engine, g, machines, DAMPING, FIXED_ITERS);
            result(
                t0.elapsed().as_secs_f64(),
                FIXED_ITERS,
                true,
                checksum_f64(&pr),
            )
        }
        Algo::PrApprox => {
            let (pr, steps) =
                programs::pagerank_approx(engine, g, machines, DAMPING, APPROX_THRESHOLD, 100_000);
            result(t0.elapsed().as_secs_f64(), steps, true, checksum_f64(&pr))
        }
        Algo::Wcc => {
            let c = programs::wcc(engine, g, machines);
            result(t0.elapsed().as_secs_f64(), 1, false, checksum_u32(&c))
        }
        Algo::Sssp => {
            let (d, _steps) = programs::sssp(engine, g, machines, ROOT);
            result(t0.elapsed().as_secs_f64(), 1, false, checksum_f64(&d))
        }
        Algo::HopDist => {
            let (h, _steps) = programs::hopdist(engine, g, machines, ROOT);
            result(t0.elapsed().as_secs_f64(), 1, false, checksum_i64(&h))
        }
        Algo::Ev => {
            let e = programs::eigenvector(engine, g, machines, FIXED_ITERS);
            result(
                t0.elapsed().as_secs_f64(),
                FIXED_ITERS,
                true,
                checksum_f64(&e),
            )
        }
        Algo::KCore => {
            let (k, _c, _steps) = programs::kcore(engine, g, machines);
            result(t0.elapsed().as_secs_f64(), 1, false, k as f64)
        }
    })
}

/// Runs `algo` on an already-built PGX.D engine (excludes engine setup,
/// matching the paper's exclusion of loading time).
pub fn run_pgx(engine: &mut Engine, algo: Algo) -> RunResult {
    let t0 = Instant::now();
    match algo {
        Algo::PrPull => {
            let r = pgxd_algorithms::try_pagerank_pull(engine, DAMPING, FIXED_ITERS, 0.0)
                .expect("pagerank-pull job");
            result(
                t0.elapsed().as_secs_f64(),
                r.iterations,
                true,
                checksum_f64(&r.scores),
            )
        }
        Algo::PrPush => {
            let r = pgxd_algorithms::try_pagerank_push(engine, DAMPING, FIXED_ITERS, 0.0)
                .expect("pagerank-push job");
            result(
                t0.elapsed().as_secs_f64(),
                r.iterations,
                true,
                checksum_f64(&r.scores),
            )
        }
        Algo::PrApprox => {
            let r =
                pgxd_algorithms::try_pagerank_approx(engine, DAMPING, APPROX_THRESHOLD, 100_000)
                    .expect("pagerank-approx job");
            result(
                t0.elapsed().as_secs_f64(),
                r.iterations,
                true,
                checksum_f64(&r.scores),
            )
        }
        Algo::Wcc => {
            let r = pgxd_algorithms::try_wcc(engine).expect("wcc job");
            result(
                t0.elapsed().as_secs_f64(),
                r.iterations,
                false,
                checksum_u32(&r.component),
            )
        }
        Algo::Sssp => {
            let r = pgxd_algorithms::try_sssp(engine, ROOT).expect("sssp job");
            result(
                t0.elapsed().as_secs_f64(),
                r.iterations,
                false,
                checksum_f64(&r.dist),
            )
        }
        Algo::HopDist => {
            let r = pgxd_algorithms::try_hopdist(engine, ROOT).expect("hopdist job");
            result(
                t0.elapsed().as_secs_f64(),
                r.iterations,
                false,
                checksum_i64(&r.hops),
            )
        }
        Algo::Ev => {
            let r = pgxd_algorithms::try_eigenvector(engine, FIXED_ITERS, 0.0)
                .expect("eigenvector job");
            result(
                t0.elapsed().as_secs_f64(),
                r.iterations,
                true,
                checksum_f64(&r.centrality),
            )
        }
        Algo::KCore => {
            let r = pgxd_algorithms::try_kcore(engine, i64::MAX).expect("kcore job");
            result(
                t0.elapsed().as_secs_f64(),
                r.iterations,
                false,
                r.max_core as f64,
            )
        }
    }
}

/// Reference checksum from the sequential implementation — used by the
/// harness's self-check mode to confirm every system computes the same
/// answer before timing it.
pub fn reference_checksum(algo: Algo, g: &Graph) -> f64 {
    match algo {
        Algo::PrPull | Algo::PrPush => checksum_f64(&seq::pagerank(g, DAMPING, FIXED_ITERS)),
        Algo::PrApprox => checksum_f64(&seq::pagerank(g, DAMPING, 200)),
        Algo::Wcc => checksum_u32(&seq::wcc(g)),
        Algo::Sssp => checksum_f64(&seq::sssp(g, ROOT)),
        Algo::HopDist => checksum_i64(&seq::bfs(g, ROOT)),
        Algo::Ev => checksum_f64(&seq::eigenvector(g, FIXED_ITERS)),
        Algo::KCore => seq::kcore(g).0 as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgxd_graph::generate;

    fn small() -> Graph {
        generate::rmat(7, 4, generate::RmatParams::skewed(), 0xACE)
    }

    #[test]
    fn all_systems_agree_on_pagerank_push() {
        let g = small();
        let reference = reference_checksum(Algo::PrPush, &g);
        for sys in System::all() {
            if let Some(r) = run(sys, Algo::PrPush, &g, 2) {
                assert!(
                    (r.checksum - reference).abs() < 1e-6,
                    "{}: {} vs {reference}",
                    sys.name(),
                    r.checksum
                );
            }
        }
    }

    #[test]
    fn all_systems_agree_on_wcc() {
        let g = small();
        let reference = reference_checksum(Algo::Wcc, &g);
        for sys in System::all() {
            let r = run(sys, Algo::Wcc, &g, 2).unwrap();
            assert_eq!(r.checksum, reference, "{}", sys.name());
        }
    }

    #[test]
    fn all_systems_agree_on_kcore() {
        let g = small();
        let reference = reference_checksum(Algo::KCore, &g);
        for sys in System::all() {
            let r = run(sys, Algo::KCore, &g, 2).unwrap();
            assert_eq!(r.checksum, reference, "{}", sys.name());
        }
    }

    #[test]
    fn sssp_agrees_with_weights() {
        let g = weighted(&small());
        let reference = reference_checksum(Algo::Sssp, &g);
        for sys in System::all() {
            let r = run(sys, Algo::Sssp, &g, 2).unwrap();
            assert!((r.checksum - reference).abs() < 1e-6, "{}", sys.name());
        }
    }

    #[test]
    fn pull_only_on_sa_and_pgx() {
        let g = small();
        assert!(run(System::Gl, Algo::PrPull, &g, 2).is_none());
        assert!(run(System::Gx, Algo::PrPull, &g, 2).is_none());
        assert!(run(System::Sa, Algo::PrPull, &g, 2).is_some());
        assert!(run(System::Pgx, Algo::PrPull, &g, 2).is_some());
    }

    #[test]
    fn per_iteration_reporting() {
        let g = small();
        let r = run(System::Sa, Algo::PrPush, &g, 1).unwrap();
        assert!(r.per_iter_seconds.is_some());
        let r = run(System::Sa, Algo::Wcc, &g, 1).unwrap();
        assert!(r.per_iter_seconds.is_none());
        assert_eq!(r.reported(), r.seconds);
    }
}
