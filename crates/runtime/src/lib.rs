//! Distributed engine runtime for the PGX.D reproduction.
//!
//! This crate implements the three layers of Figure 1 of the paper as an
//! *in-process simulated cluster*: every "machine" of the cluster is a
//! [`machine::MachineState`] with its own worker, copier, and poller
//! threads, and machines exchange serialized byte buffers over a
//! [`fabric::Fabric`] exactly as the real system exchanges InfiniBand
//! messages. All code paths the paper describes — message buffering, side
//! structures for run-to-completion continuations, copier-side atomic
//! application of write reductions, ghost synchronization, back-pressure,
//! barriers and termination detection — run unchanged; only the wire is a
//! memcpy.
//!
//! Layer map (paper § → module):
//!
//! * Task Manager (§3.2): [`chunk`] (edge chunking), [`phase`] (the
//!   run-to-completion worker loop contract), [`worker`] (request buffers +
//!   side structures).
//! * Data Manager (§3.3): [`partition`] (vertex/edge partitioning),
//!   [`ghost`] (selective ghost nodes), [`localgraph`] (per-machine CSR
//!   fragments with encoded remote targets), [`props`] (column-oriented
//!   property storage with atomic reductions).
//! * Communication Manager (§3.4): [`message`] (wire format), [`buffer`]
//!   (buffer pool with back-pressure), [`fabric`] (links + traffic
//!   accounting + optional bandwidth model), [`copier`] (answers reads,
//!   applies writes), poller threads in [`machine`].
//!
//! The user-facing programming model (§4) lives in the `pgxd` crate on top
//! of this one.

pub mod barrier;
pub mod buffer;
pub mod cancel;
pub mod checkpoint;
pub mod chunk;
pub mod cluster;
pub mod config;
pub mod copier;
pub mod fabric;
pub mod fault;
pub mod ghost;
pub mod health;
pub mod ids;
pub mod jobctx;
pub mod localgraph;
pub mod machine;
pub mod message;
pub mod partition;
pub mod phase;
pub mod props;
pub mod reliable;
pub mod stats;
pub mod tcp;
pub mod telemetry;
pub mod term;
pub mod transport;
pub mod worker;

pub use cancel::{CancelReason, CancelToken};
pub use checkpoint::{Checkpoint, CheckpointStore, JobProgress};
pub use cluster::Cluster;
pub use config::{
    ChunkingMode, Config, ConfigBuilder, CrashPlan, FaultPlan, PartitioningMode, RecoveryConfig,
    ReliabilityConfig, ServeConfig, TelemetryConfig, TransportBackend, TransportConfig,
};
pub use health::{ClusterHealth, JobError, TransportErrorKind};
pub use ids::{GlobalId, MachineId};
pub use jobctx::{JobCtx, JobExec, JobOutcome, PhaseSpan};
pub use props::{PropId, PropValue, ReduceOp};
pub use tcp::{
    bind_coordinator, bootstrap, reserve_loopback_addr, Membership, NodeComm, TcpTransport,
};
pub use telemetry::Telemetry;
pub use transport::{InMemoryTransport, Transport};
