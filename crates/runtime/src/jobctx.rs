//! Job-scoped cost attribution: the identity of the job a cluster is
//! currently executing, and the per-job execution record assembled when
//! it finishes.
//!
//! The serving layer (crate `pgxd-sched`) runs jobs one at a time on the
//! shared cluster — jobs are barrier-delimited, so the dispatcher never
//! interleaves two parallel regions. That serialization is what makes
//! exact per-job attribution possible without charging anything on the
//! hot paths: the dispatcher brackets each job with
//! [`Cluster::begin_job`]/[`Cluster::end_job`], and the always-on counter
//! delta over that window *is* the job's wire cost. When the job ends the
//! cluster folds that delta, windowed histogram deltas, and the
//! tracer-derived phase/barrier spans into one [`JobExec`].
//!
//! [`JobExec`] is part of the serve-layer API surface. With
//! [`TelemetryConfig::enabled`](crate::config::TelemetryConfig) off the
//! instrumented fields simply come back zero/empty while the always-on
//! [`StatsSnapshot`] window delta stays live.
//!
//! [`Cluster::begin_job`]: crate::cluster::Cluster::begin_job
//! [`Cluster::end_job`]: crate::cluster::Cluster::end_job

use crate::stats::StatsSnapshot;

/// Identity of one served job, threaded from the scheduler to the
/// cluster's attribution window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct JobCtx {
    /// Server-assigned job id.
    pub job: u64,
    /// Owning session id.
    pub session: u64,
    /// Scheduler lane discriminant (0 = interactive, 1 = batch).
    pub lane: u8,
}

impl JobCtx {
    /// Packs the context into 56 bits so it fits a tracer event argument:
    /// lane in bits 0..8, session in bits 8..24, job in bits 24..56.
    /// Sessions and jobs beyond the field width wrap, which only affects
    /// display.
    pub fn pack(self) -> u64 {
        (self.lane as u64) | ((self.session & 0xFFFF) << 8) | ((self.job & 0xFFFF_FFFF) << 24)
    }

    /// Inverse of [`JobCtx::pack`].
    pub fn unpack(v: u64) -> JobCtx {
        JobCtx {
            job: (v >> 24) & 0xFFFF_FFFF,
            session: (v >> 8) & 0xFFFF,
            lane: (v & 0xFF) as u8,
        }
    }

    /// Human-readable lane name for reports and trace lanes.
    pub fn lane_name(&self) -> &'static str {
        match self.lane {
            0 => "interactive",
            _ => "batch",
        }
    }
}

/// How a served job left the cluster.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum JobOutcome {
    /// Ran to completion.
    #[default]
    Done,
    /// Cooperatively cancelled (or deadline exceeded) mid-run.
    Cancelled,
    /// Returned an error other than cancellation.
    Failed,
}

impl JobOutcome {
    pub fn name(&self) -> &'static str {
        match self {
            JobOutcome::Done => "done",
            JobOutcome::Cancelled => "cancelled",
            JobOutcome::Failed => "failed",
        }
    }
}

/// One named parallel region the job ran, reconstructed from tracer
/// events across all machines and workers.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseSpan {
    /// Phase label (`"main"` for a job, `"phase"` for an unlabeled one).
    pub label: String,
    /// 1-based cluster phase epoch (the tracer event argument).
    pub epoch: u64,
    /// Earliest `PhaseStart` timestamp across machines, ns since the
    /// cluster epoch.
    pub start_ns: u64,
    /// Latest `PhaseEnd` timestamp across machines.
    pub end_ns: u64,
    /// Mean per-worker barrier residence (`BarrierExit` − `BarrierEnter`)
    /// for this epoch, ns. Zero when the phase ran without a distributed
    /// barrier or tracing was off.
    pub barrier_ns: u64,
}

/// Everything the cluster attributes to one served job. Surfaced to
/// clients inside the serve layer's `JobReport`.
#[derive(Clone, Debug, Default)]
pub struct JobExec {
    pub ctx: JobCtx,
    pub outcome: JobOutcome,
    /// Server enqueue timestamp, ns since the cluster epoch (0 with
    /// telemetry off).
    pub enqueue_ns: u64,
    /// Dispatch timestamp — the job left the queue and took the cluster.
    pub dispatch_ns: u64,
    /// Completion timestamp.
    pub done_ns: u64,
    /// Cluster-wide counter delta over the job's window (always live,
    /// even with telemetry disabled): the job's wire cost, including the
    /// heartbeats and acks that kept its links alive.
    pub traffic: StatsSnapshot,
    /// Phase spans with barrier residence, in execution order.
    pub phases: Vec<PhaseSpan>,
    /// Recovery attempts (machine-loss retries) observed during the job.
    pub retries: u64,
    /// Timestamps of those recovery attempts, for trace instants.
    pub retry_ns: Vec<u64>,
    /// Seconds of fully-parallel compute, summed over the engine-level
    /// jobs this served job ran.
    pub compute_s: f64,
    /// Seconds of communication (intra- + inter-machine message work).
    pub comm_s: f64,
    /// Seconds draining buffered messages after the last task.
    pub drain_s: f64,
    /// Seconds taking checkpoints inside the job.
    pub checkpoint_s: f64,
    /// Engine-level parallel jobs (barrier-delimited regions) executed.
    pub engine_jobs: u64,
}

impl JobExec {
    /// Queue wait in nanoseconds (dispatch − enqueue).
    pub fn queue_wait_ns(&self) -> u64 {
        self.dispatch_ns.saturating_sub(self.enqueue_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip() {
        let ctx = JobCtx {
            job: 12345,
            session: 77,
            lane: 1,
        };
        assert_eq!(JobCtx::unpack(ctx.pack()), ctx);
        assert_eq!(JobCtx::unpack(0), JobCtx::default());
    }

    #[test]
    fn pack_fits_56_bits() {
        let ctx = JobCtx {
            job: u64::MAX,
            session: u64::MAX,
            lane: u8::MAX,
        };
        assert!(ctx.pack() < (1u64 << 56));
    }

    #[test]
    fn queue_wait_saturates() {
        let exec = JobExec {
            enqueue_ns: 10,
            dispatch_ns: 5,
            ..JobExec::default()
        };
        assert_eq!(exec.queue_wait_ns(), 0);
    }
}
