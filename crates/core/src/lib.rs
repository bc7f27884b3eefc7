//! PGX.D programming model — the public API of the reproduction.
//!
//! This crate implements §4 of the paper on top of `pgxd-runtime`:
//!
//! * [`Engine`] — the driver-side facade: load a graph into the simulated
//!   cluster, create properties, run jobs, inspect results (§4.2's
//!   top-level execution model: sequential regions on the driver,
//!   parallel regions as jobs).
//! * [`EdgeTask`] / [`NodeTask`] — the run-to-completion task interface
//!   (§4.1.2): implement `run()` and the engine invokes it for every edge
//!   (or node) of the graph in parallel, across machines. A node task
//!   whose body is column arithmetic on the vertex implements
//!   `run_chunk()` instead, which runs once per chunk of vertices over
//!   [`Col`] views resolved once per chunk. An edge task whose body is one
//!   reduction declares it instead, as its [`Reduction`]: *data pulling*
//!   is a [`Fold`] when the pulled value is only folded into the current
//!   vertex, and `read_nbr` + `read_done()` when the continuation does
//!   more; *data pushing* is a [`Scatter`] when the pushed value is a
//!   column of the current vertex, and `write_nbr` otherwise.
//! * [`EdgeCtx`] / [`ReadDoneCtx`] / [`NodeCtx`] — the accessors the paper
//!   exposes as `get_local` / `set_local` / `write_remote<OP>` /
//!   `read_remote`, plus neighbor/degree/weight helpers; [`NodeChunk`] is
//!   a node task's chunk, with its vertices, views and degrees.
//! * [`JobSpec`] — the per-job property declaration ("the program needs to
//!   define what properties are used in the region as well as how they are
//!   used — to be read or to be written (reduced)"), which drives the
//!   automatic ghost synchronization. A declared [`Reduction`] states its
//!   own share (a fold reads its source, a scatter reduces its target), so
//!   the spec lists only what the job uses beyond it.
//!
//! # Example: pull-mode PageRank kernel
//!
//! ```
//! use pgxd::{BuildEngine, Engine, EdgeTask, Dir, Fold, JobSpec, Prop, ReduceOp, Reduction};
//! use pgxd_graph::generate;
//!
//! struct PullSum { src: Prop<f64>, dst: Prop<f64> }
//! impl EdgeTask for PullSum {
//!     fn reduction(&self) -> Option<Reduction> {
//!         // dst[v] += src[u], even cross-machine. One worker runs all of
//!         // v's edges, so the sum needs no atomics and stays in a
//!         // register until v's last edge.
//!         Some(Fold::new(self.src, self.dst, ReduceOp::Sum).into())
//!     }
//! }
//!
//! let g = generate::ring(64);
//! let mut engine = Engine::builder().machines(2).engine(&g).unwrap();
//! let src = engine.add_prop("src", 1.0f64);
//! let dst = engine.add_prop("dst", 0.0f64);
//! // The fold reads `src`: the job's spec need not say so again.
//! engine
//!     .try_run_edge_job(Dir::In, &JobSpec::new(), PullSum { src, dst })
//!     .unwrap();
//! // Every ring node has exactly one in-neighbor with src == 1.0.
//! assert_eq!(engine.gather(dst), vec![1.0f64; 64]);
//! ```
//!
//! # Example: a continuation that reads again
//!
//! `read_done` runs on the worker that issued the read, with the value and
//! the tag passed to `read_nbr_tagged` — enough for a state machine whose
//! next step depends on what arrived:
//!
//! ```
//! use pgxd::{BuildEngine, Engine, EdgeTask, EdgeCtx, ReadDoneCtx, Dir, JobSpec, NodeId, Prop};
//! use pgxd_graph::generate;
//!
//! /// Adds the in-neighbor's `next` and then `next` of the vertex it names.
//! struct TwoHops { next: Prop<i64>, sum: Prop<i64> }
//! impl EdgeTask for TwoHops {
//!     fn run(&self, ctx: &mut EdgeCtx<'_, '_>) {
//!         ctx.read_nbr_tagged(self.next, 1);
//!     }
//!     fn read_done(&self, ctx: &mut ReadDoneCtx<'_, '_>) {
//!         let got: i64 = ctx.value();
//!         let sum = ctx.get(self.sum);
//!         ctx.set(self.sum, sum + got);
//!         if ctx.aux() == 1 {
//!             ctx.read_global(got as NodeId, self.next, 0); // second hop
//!         }
//!     }
//! }
//!
//! let g = generate::ring(8);
//! let mut engine = Engine::builder().machines(2).engine(&g).unwrap();
//! let next = engine.add_prop("next", 0i64);
//! let sum = engine.add_prop("sum", 0i64);
//! for v in 0..8 {
//!     engine.set(next, v, (v as i64 + 1) % 8);
//! }
//! engine
//!     .try_run_edge_job(Dir::In, &JobSpec::new().read(next), TwoHops { next, sum })
//!     .unwrap();
//! // v's in-neighbor names v, and v names v + 1.
//! let want: Vec<i64> = (0..8).map(|v| v + (v + 1) % 8).collect();
//! assert_eq!(engine.gather(sum), want);
//! ```

mod closure_tasks;
mod engine;
mod jobphase;
mod prop;
pub mod query;
pub mod recover;
mod scope;
pub mod serve;
mod spec;
mod task;
pub mod vector;

pub use engine::{loopback_ranks, BuildEngine, Engine, EngineBuilder, JobReport, LoopbackRank};
pub use prop::Prop;
pub use recover::{
    EngineSource, Recovered, RecoveryDriver, ResumableAlgorithm, RetryPolicy, StepOutcome,
};
pub use spec::JobSpec;
pub use task::{
    Col, Dir, EdgeCtx, EdgeTask, Fold, NodeChunk, NodeCtx, NodeTask, ReadDoneCtx, Reduction,
    Scatter,
};

/// Closure-based ad-hoc kernels (see [`tasks::on_edge`]).
pub mod tasks {
    pub use crate::closure_tasks::{on_edge, on_node, EdgeClosure, NodeClosure};
}

// Re-exports so algorithm code only needs `pgxd`.
pub use pgxd_graph::NodeId;
pub use pgxd_runtime::cancel::{CancelReason, CancelToken};
pub use pgxd_runtime::checkpoint::{Checkpoint, CheckpointStore, JobProgress};
pub use pgxd_runtime::config::{
    ChunkingMode, Config, ConfigBuilder, CrashPlan, FaultPlan, PartitioningMode, RecoveryConfig,
    ReliabilityConfig, ServeConfig, StorageFaultKind, StorageFaultPlan, TelemetryConfig,
    TransportBackend, TransportConfig, WireFaultPlan,
};
pub use pgxd_runtime::health::{JobError, RetryBudget, TransportErrorKind};
pub use pgxd_runtime::props::{PropValue, ReduceOp};
pub use pgxd_runtime::stats::{Breakdown, StatsSnapshot};

/// The pluggable delivery layer: the [`transport::Transport`] trait plus
/// its two backends (in-memory channel switch, real TCP sockets), and the
/// TCP bootstrap/membership machinery for multi-process clusters.
pub mod transport {
    pub use pgxd_runtime::tcp::{
        bind_coordinator, bootstrap, reserve_loopback_addr, Membership, NodeComm, TcpTransport,
    };
    pub use pgxd_runtime::transport::{
        Contribution, InMemoryTransport, Transport, WireCountersSnapshot,
    };
}
