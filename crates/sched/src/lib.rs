//! Job server for the PGX.D reproduction: sessions, a priority-lane
//! scheduler, admission control, and cancellation/deadlines.
//!
//! PGX.D is built as a *server*: one loaded graph is shared by many
//! concurrent clients, each submitting analytics jobs that the engine
//! serializes onto the cluster one at a time (jobs are barrier-delimited,
//! so interleaving them would corrupt the exact-termination accounting).
//! This crate adds that serving layer on top of `pgxd-runtime`:
//!
//! * [`Session`] — a named client handle. Properties a session's jobs
//!   create belong to that session and are reclaimed when it closes, so
//!   concurrent clients get private namespaces over the shared graph.
//! * [`Scheduler`] — two priority lanes (interactive/batch) drained
//!   weighted-fair, FIFO within a lane, with per-session in-flight caps
//!   and a bounded submission queue ([`JobError::QueueFull`]).
//! * [`admission`] — a per-job memory estimate (property columns +
//!   buffer-pool share + checkpoint overhead) checked against a
//!   configurable budget ([`JobError::AdmissionDenied`]).
//! * [`CancelToken`] — cooperative cancellation and deadlines, observed
//!   by workers within one chunk and surfaced as
//!   [`JobError::Cancelled`] / [`JobError::DeadlineExceeded`].
//!
//! The crate is generic over [`ServeEngine`] so it depends only on the
//! runtime; the `pgxd` crate implements the trait for its `Engine` and
//! re-exports everything as `pgxd::serve`.
//!
//! [`JobError::QueueFull`]: pgxd_runtime::health::JobError::QueueFull
//! [`JobError::AdmissionDenied`]: pgxd_runtime::health::JobError::AdmissionDenied
//! [`JobError::Cancelled`]: pgxd_runtime::health::JobError::Cancelled
//! [`JobError::DeadlineExceeded`]: pgxd_runtime::health::JobError::DeadlineExceeded

pub mod admission;
pub mod scheduler;
pub mod server;

pub use admission::{estimate_bytes, MemProfile};
pub use scheduler::{JobMeta, Lane, Scheduler};
pub use server::{JobHandle, JobReport, JobServer, Session};

pub use pgxd_runtime::cancel::{CancelReason, CancelToken};
pub use pgxd_runtime::health::RetryBudget;
pub use pgxd_runtime::jobctx::{JobCtx, JobExec, JobOutcome, PhaseSpan};

use pgxd_runtime::props::PropId;
use pgxd_runtime::telemetry::Telemetry;
use std::sync::Arc;

/// What the job server needs from an engine. `pgxd::Engine` implements
/// this; tests use lightweight mocks.
pub trait ServeEngine: Send + 'static {
    /// Memory-relevant cluster dimensions for admission estimates,
    /// including the *current* live property-column count.
    fn mem_profile(&self) -> MemProfile;

    /// Ids of every live property column.
    fn live_prop_ids(&self) -> Vec<PropId>;

    /// Drops one property column everywhere (session-namespace
    /// reclamation).
    fn reclaim_prop(&mut self, id: PropId);

    /// The registry the server records job counters, queue-wait samples,
    /// and `JobEnqueue`/`JobDispatch`/`JobCancel` tracer events into
    /// (machine 0's, for a cluster-backed engine).
    fn telemetry(&self) -> Arc<Telemetry>;

    /// Opens a per-job attribution window right before the dispatcher
    /// runs the job body. A cluster-backed engine threads `ctx` to every
    /// machine so workers/copiers charge wire traffic to the job;
    /// `enqueue_ns` is the submit timestamp on the engine's clock (for
    /// the queued span in trace exports). The default is a no-op so
    /// non-cluster engines (and test mocks) need not care.
    fn begin_job(&mut self, _ctx: JobCtx, _enqueue_ns: u64) {}

    /// Closes the window opened by [`ServeEngine::begin_job`] and returns
    /// the per-job execution record, if the engine tracks one.
    fn end_job(&mut self, _outcome: JobOutcome) -> Option<JobExec> {
        None
    }
}
