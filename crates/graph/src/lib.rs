//! Graph substrate for the PGX.D reproduction.
//!
//! This crate provides the in-memory graph representation and tooling that
//! every other crate in the workspace builds on:
//!
//! * [`Csr`] — a Compressed Sparse Row adjacency structure, the storage
//!   format the paper uses on every machine (§3.3).
//! * [`Graph`] — a directed graph bundling forward (out-edge) and reverse
//!   (in-edge) CSR views plus optional edge weights.
//! * [`builder::GraphBuilder`] — edge-list accumulation and CSR construction.
//! * [`generate`] — synthetic workload generators: uniform Erdős–Rényi
//!   (the §5.3.1 communication experiment), RMAT (stand-in for the skewed
//!   Twitter/Web-UK instances), and small structured graphs for tests.
//! * [`io`] — text and binary edge-list formats (Table 4 loading paths).
//!
//! Vertices are numbered `0..N-1` by a preprocessing step, exactly as the
//! paper assumes; partitioning into machines happens later, in
//! `pgxd-runtime`.

pub mod builder;
pub mod csr;
pub mod generate;
pub mod io;
pub mod stats;

pub use builder::GraphBuilder;
pub use csr::{Csr, Graph};

/// Vertex identifier in the global `0..N-1` numbering.
///
/// 32 bits comfortably covers the scaled-down instances this reproduction
/// targets (the paper's largest graph has 78 M vertices, which also fits).
pub type NodeId = u32;

/// Index of an edge in a CSR edge array.
pub type EdgeIdx = usize;
