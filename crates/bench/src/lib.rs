//! Benchmark harness regenerating every table and figure of the PGX.D
//! paper's evaluation (§5).
//!
//! The experiments live in the `repro` binary (`cargo run -p pgxd-bench
//! --release --bin repro -- <experiment>`; `experiments::EXPERIMENTS` is
//! its one registry-and-dispatch table); `tests/soak.rs` is the
//! whole-stack chaos soak. DESIGN.md maps each experiment to the modules
//! it exercises; EXPERIMENTS.md records paper-vs-measured outcomes.

pub mod datasets;
pub mod experiments;
pub mod report;
pub mod systems;

pub use datasets::{BenchGraph, Scale};
pub use systems::{Algo, System};
