//! The paper's algorithm suite (Table 2), implemented on the PGX.D
//! programming model.
//!
//! | Algorithm | Pattern | Module |
//! |---|---|---|
//! | PageRank (exact, pull) | data **pulling** over in-edges | [`mod@pagerank`] |
//! | PageRank (exact, push) | data pushing over out-edges | [`mod@pagerank`] |
//! | PageRank (approximate) | delta propagation + deactivation | [`mod@pagerank`] |
//! | WCC | push `Min` labels both directions, reactivation | [`mod@wcc`] |
//! | SSSP (Bellman-Ford) | push `Min` distances over weighted edges | [`mod@sssp`] |
//! | Hop Dist (BFS) | push `Min` hop counts | [`mod@hopdist`] |
//! | EigenVector centrality | pull + driver-side normalization | [`mod@eigenvector`] |
//! | KCore (biggest k-core) | iterative peeling, many tiny steps | [`mod@kcore`] |
//!
//! Plus two algorithms beyond the paper's table, demonstrating the task
//! framework's generality: [`mod@mis`] (Luby's maximal independent set)
//! and [`mod@betweenness`] (Brandes, mixing push and pull per source).
//!
//! Every function takes a loaded [`pgxd::Engine`] and cleans up its
//! temporary properties before returning, so algorithms can be chained on
//! one engine (the §4.2 application model).
//!
//! Every algorithm is fallible: `try_<name>` returns
//! `Result<_, pgxd::JobError>` — a cluster abort is an expected outcome
//! under faults, never a panic. Exact PageRank and Hop Dist are written
//! once, as a [`pgxd::ResumableAlgorithm`] ([`ResumablePageRank`],
//! [`ResumableHopDist`]): `try_<name>` drives that body on the caller's
//! engine, and `pgxd::RecoveryDriver::run` drives the same body with
//! checkpoints, so a machine loss mid-job triggers a restart on the
//! surviving machines instead of an error (see `pgxd::recover`).

pub mod betweenness;
pub mod eigenvector;
pub mod hopdist;
pub mod kcore;
pub mod mis;
pub mod pagerank;
pub mod sssp;
pub mod wcc;

pub use betweenness::try_betweenness;
pub use eigenvector::try_eigenvector;
pub use hopdist::{try_hopdist, ResumableHopDist};
pub use kcore::try_kcore;
pub use mis::try_mis;
pub use pagerank::{
    try_pagerank_approx, try_pagerank_pull, try_pagerank_pull_with, try_pagerank_push,
    try_pagerank_push_with, ResumablePageRank,
};
pub use sssp::try_sssp;
pub use wcc::{try_wcc, try_wcc_with};
