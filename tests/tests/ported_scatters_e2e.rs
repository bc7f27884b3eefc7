//! k-core's neighbor notification, MIS's exclusion and delta-PageRank's
//! push are declared scatters; their answers and wire counters are pinned.
//!
//! On a fixed R-MAT with a ghost threshold low enough that every machine of
//! a multi-machine cluster holds mirrors, at {1, 2, 3} machines × {1, 2}
//! workers:
//! - k-core equals the sequential peeling (`seq::kcore`);
//! - MIS membership equals the recorded per-edge (`write_nbr`) output,
//!   which is the same at every shape (priorities are deterministic);
//! - delta-PageRank at 1 machine × 1 worker is bit-identical to the
//!   recorded per-edge output (one worker reduces in edge order either
//!   way);
//! - each call's `write_entries` and `local_writes` equal the counts the
//!   per-edge form made: for k-core and MIS at every shape, for
//!   delta-PageRank at 1 × 1 only (its float deactivation makes the
//!   active sets, hence the counts, order-dependent elsewhere).
//!
//! The file uses public APIs only, so it runs unchanged against the
//! per-edge implementation the numbers were recorded from.

use pgxd::{BuildEngine, Engine};
use pgxd_algorithms as algos;
use pgxd_baselines::seq;
use pgxd_graph::{generate, Graph};

fn test_graph() -> Graph {
    generate::rmat(7, 4, generate::RmatParams::skewed(), 0xC0DE)
}

fn engine(g: &Graph, machines: usize, workers: usize) -> Engine {
    let e = Engine::builder()
        .machines(machines)
        .workers(workers)
        .ghost_threshold(Some(8))
        .engine(g)
        .unwrap();
    // A machine mirrors only vertices it does not own: one machine holds
    // none.
    for m in 0..machines {
        let ghosts = e.cluster().machine(m).graph.num_ghosts();
        assert!(
            ghosts > 0 || machines == 1,
            "machine {m} of {machines} holds no ghost"
        );
    }
    e
}

/// `(write_entries, local_writes)` of one call on `e`.
fn census<T>(e: &mut Engine, call: impl FnOnce(&mut Engine) -> T) -> (T, (u64, u64)) {
    let before = e.cluster().total_stats();
    let out = call(e);
    let delta = e.cluster().total_stats() - before;
    (out, (delta.write_entries, delta.local_writes))
}

/// FNV-1a over 64-bit words: a pin for a long output.
fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const SHAPES: [(usize, usize); 6] = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)];

/// Per shape of [`SHAPES`]: `(write_entries, local_writes)` of one call.
const KCORE_COUNTS: [(u64, u64); 6] = [
    (0, 992),
    (0, 992),
    (182, 480),
    (182, 480),
    (232, 320),
    (232, 320),
];
const MIS_COUNTS: [(u64, u64); 6] = [
    (0, 1274),
    (0, 1274),
    (212, 616),
    (212, 616),
    (274, 413),
    (274, 413),
];
/// Members and [`fingerprint`] of their ids, ascending.
const MIS_MEMBERS: (usize, u64) = (84, 1_936_167_337_995_158_575);
/// Iterations, [`fingerprint`] of the score bits, and the counts at 1 × 1.
const APPROX_PR: (usize, u64, (u64, u64)) = (48, 5_206_488_283_763_392_382, (0, 20_574));

#[test]
fn kcore_matches_sequential_and_its_census() {
    let g = test_graph();
    let (max_core, core) = seq::kcore(&g);
    for (shape, &(machines, workers)) in SHAPES.iter().enumerate() {
        let case = format!("machines={machines} workers={workers}");
        let mut e = engine(&g, machines, workers);
        let (r, counts) = census(&mut e, |e| algos::try_kcore(e, 256).unwrap());
        assert_eq!((r.max_core, &r.core), (max_core, &core), "{case}");
        assert_eq!(counts, KCORE_COUNTS[shape], "{case}");
    }
}

#[test]
fn mis_matches_recorded_membership_and_census() {
    let g = test_graph();
    for (shape, &(machines, workers)) in SHAPES.iter().enumerate() {
        let case = format!("machines={machines} workers={workers}");
        let mut e = engine(&g, machines, workers);
        let (r, counts) = census(&mut e, |e| algos::try_mis(e).unwrap());
        algos::mis::validate_mis(&g, &r.in_set).unwrap();
        let members: Vec<u64> = (0..g.num_nodes() as u64)
            .filter(|&v| r.in_set[v as usize])
            .collect();
        let pin = (members.len(), fingerprint(members));
        assert_eq!(pin, MIS_MEMBERS, "{case}");
        assert_eq!(counts, MIS_COUNTS[shape], "{case}");
    }
}

#[test]
fn delta_pagerank_is_bit_identical_at_one_worker() {
    let g = test_graph();
    let mut e = engine(&g, 1, 1);
    let (r, counts) = census(&mut e, |e| {
        algos::try_pagerank_approx(e, 0.85, 1e-7, 100).unwrap()
    });
    let pin = (
        r.iterations,
        fingerprint(r.scores.iter().map(|s| s.to_bits())),
        counts,
    );
    assert_eq!(pin, APPROX_PR);
    // Every other shape sums in another order, but lands within 1e-6.
    for &(machines, workers) in &SHAPES[1..] {
        let mut e = engine(&g, machines, workers);
        let other = algos::try_pagerank_approx(&mut e, 0.85, 1e-7, 100).unwrap();
        for (a, b) in r.scores.iter().zip(&other.scores) {
            assert!(
                (a - b).abs() < 1e-6,
                "machines={machines} workers={workers}"
            );
        }
    }
}
