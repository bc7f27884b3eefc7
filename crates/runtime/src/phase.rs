//! Parallel phases and job completion detection.
//!
//! A PGX.D *job* (one parallel region of the application, §4.2) executes as
//! one phase, the main phase, ending at a cluster-wide barrier. It is
//! defined in the `pgxd` crate and runs the user task over the chunk queue
//! with the run-to-completion worker loop. Both halves of §3.3's ghost
//! synchronization ride inside it:
//!
//! - owner values of read properties are pushed at its start to the
//!   machines that mirror them ([`sync_ghosts`]): each machine starts its
//!   chunks once the values for its mirror slots — a count it knows
//!   locally — have landed;
//! - ghost partials of reduced properties leave at its end: each worker
//!   merges its private copies once its tasks are done, and the machine's
//!   last worker to merge sends the slots to their owners before retiring
//!   its unit.
//!
//! Completion of a phase follows §3.2 exactly: "a particular job completes
//! when the task list is empty and there are no unfinished remote
//! requests". [`JobState`] counts the first half (chunks and merging
//! workers); each worker asks its own machine for the second, so a ghost
//! value or partial sent before its unit retires is waited for like any
//! other entry. There is one
//! protocol per mode: by default the in-process machines share the exact
//! `pending` entry counter; under `strict_distributed` (forced by TCP) the
//! termination wave of [`crate::term`] releases the phase. Either way the
//! workers then cross the process barrier and the phase is over — detecting
//! completion *is* the synchronization, and no message barrier follows.
//! [`DistBarrierPhase`] exists only to measure one (Figure 5b).

use crate::cancel::CancelToken;
use crate::machine::MachineState;
use crate::message::MsgKind;
use crate::props::{PropId, ReduceOp};
use crate::stats::WorkerTiming;
use crate::telemetry::EventKind;
use crate::worker::{SideRec, WorkerComm};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Execution context handed to a phase on each worker thread.
pub struct WorkerEnv<'a> {
    /// The worker's machine.
    pub machine: &'a Arc<MachineState>,
    /// Local worker index on this machine.
    pub worker_idx: usize,
    /// The worker's communication state.
    pub comm: &'a mut WorkerComm,
}

/// One parallel phase, executed concurrently by every worker of every
/// machine. A phase that sends entries returns only once it is complete
/// (see [`drain_until_complete`]); the runtime then crosses the process
/// barrier after `execute` returns on all of this process's workers.
pub trait Phase: Send + Sync {
    /// Runs this worker's share of the phase to completion.
    fn execute(&self, env: &mut WorkerEnv<'_>);
}

/// Shared completion state for one phase.
#[derive(Debug)]
pub struct JobState {
    /// Outstanding work units: for a main phase, chunks plus one per
    /// worker, counted over the machines this process hosts. The phase is
    /// complete when this reaches zero *and* the calling worker's
    /// machine says no remote request is unfinished
    /// ([`JobState::is_complete`]).
    outstanding: AtomicUsize,
    /// Phase start, for worker timings.
    start: Instant,
    /// Per-machine, per-worker timing records (Figure 6c): one row per
    /// machine hosted by this process, row 0 being machine `first_machine`.
    /// A rank of a multi-process cluster fills (and owns) one row; rows for
    /// machines it cannot see would only dilute the breakdown's means.
    timings: Mutex<Vec<Vec<WorkerTiming>>>,
    first_machine: usize,
    /// The job's cancellation token (never fires for direct callers).
    /// Workers poll it once per chunk; a fired token makes them retire the
    /// rest of the queue unexecuted, so the phase still terminates at its
    /// barrier with exact accounting.
    cancel: CancelToken,
}

impl JobState {
    /// Completion state for `outstanding` work units of the machines in
    /// `hosted` (all of them in-process, one on a rank of a multi-process
    /// cluster), each running `workers` workers. Built through
    /// [`Cluster::job_state`].
    ///
    /// [`Cluster::job_state`]: crate::cluster::Cluster::job_state
    pub fn for_hosted(
        outstanding: usize,
        hosted: std::ops::Range<usize>,
        workers: usize,
        cancel: CancelToken,
    ) -> Arc<Self> {
        Arc::new(JobState {
            outstanding: AtomicUsize::new(outstanding),
            start: Instant::now(),
            timings: Mutex::new(vec![vec![WorkerTiming::default(); workers]; hosted.len()]),
            first_machine: hosted.start,
            cancel,
        })
    }

    /// The job's cancellation token.
    #[inline]
    pub fn cancel(&self) -> &CancelToken {
        &self.cancel
    }

    /// Retires one work unit (a finished chunk / a finished worker).
    ///
    /// Publish before retire: every entry the unit buffered must already
    /// be counted in `pending` — `WorkerComm::flush` or
    /// `WorkerComm::publish_pending` first — or another worker could see
    /// the last unit gone and `pending` at zero with requests still unsent.
    #[inline]
    pub fn retire(&self) {
        let prev = self.outstanding.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "retired more work units than existed");
    }

    /// Retires `n` work units at once — the cancellation path, where one
    /// worker claims every remaining chunk unexecuted.
    #[inline]
    pub fn retire_many(&self, n: usize) {
        if n == 0 {
            return;
        }
        let prev = self.outstanding.fetch_sub(n, Ordering::AcqRel);
        debug_assert!(prev >= n, "retired more work units than existed");
    }

    /// True when no work unit remains and every buffered entry has been
    /// consumed cluster-wide, as `machine` — the calling worker's own —
    /// sees it. With its termination wave on (`strict_distributed`, which
    /// TCP forces) the machine reports its empty task list to the
    /// coordinator and waits for the released token ([`crate::term`]);
    /// otherwise the shared `pending` counter is exact and zero is the
    /// second half of §3.2's rule.
    #[inline]
    pub fn is_complete(&self, machine: &MachineState) -> bool {
        if self.outstanding.load(Ordering::Acquire) != 0 {
            return false;
        }
        if machine.term.enabled() {
            machine.term_poll()
        } else {
            machine.pending.load(Ordering::Acquire) == 0
        }
    }

    /// Nanoseconds since the phase was created.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Records that a worker finished its local tasks.
    pub fn mark_tasks_done(&self, machine: usize, worker: usize) {
        let ns = self.elapsed_ns();
        self.timings.lock()[machine - self.first_machine][worker].tasks_done_ns = ns;
    }

    /// Records that a worker observed global completion.
    pub fn mark_drained(&self, machine: usize, worker: usize) {
        let ns = self.elapsed_ns();
        self.timings.lock()[machine - self.first_machine][worker].drained_ns = ns;
    }

    /// Snapshot of the timing matrix (rows = machines hosted here).
    pub fn timings(&self) -> Vec<Vec<WorkerTiming>> {
        self.timings.lock().clone()
    }
}

/// Drains a worker's response queue, invoking `on_value(rec, bits)` for
/// each read-response value, until the job is globally complete. Any
/// entries the callback buffers are flushed between batches.
///
/// This is the post-task half of the run-to-completion loop shared by all
/// phases; the main phase also calls [`drain_once`] opportunistically
/// between chunks.
pub fn drain_until_complete<F>(env: &mut WorkerEnv<'_>, job: &JobState, mut on_value: F)
where
    F: FnMut(&mut WorkerEnv<'_>, SideRec, u64),
{
    loop {
        let worked = drain_once(env, &mut on_value);
        if worked {
            env.comm.flush();
            continue;
        }
        if job.is_complete(env.machine) {
            return;
        }
        if env.machine.health.is_aborted() {
            // The exact termination counter can never reach zero once
            // envelopes were lost: fail the in-flight continuations and
            // fall through to the phase barrier so every thread joins.
            env.comm.abort_in_flight();
            return;
        }
        std::thread::yield_now();
    }
}

/// Processes all currently queued responses; returns whether any work was
/// done. `on_value` receives each read value with the side record of the
/// request it answers ([`Response::values`]).
///
/// [`Response::values`]: crate::worker::Response::values
pub fn drain_once<F>(env: &mut WorkerEnv<'_>, on_value: &mut F) -> bool
where
    F: FnMut(&mut WorkerEnv<'_>, SideRec, u64),
{
    let mut worked = false;
    while let Some(resp) = env.comm.try_pop_response() {
        worked = true;
        for (rec, bits) in resp.values() {
            on_value(env, rec, bits);
        }
        env.comm.finish_response(resp);
    }
    worked
}

/// Splits `0..len` into `parts` near-equal ranges and returns range `idx`.
pub fn share(len: usize, parts: usize, idx: usize) -> std::ops::Range<usize> {
    let base = len / parts;
    let extra = len % parts;
    let start = idx * base + idx.min(extra);
    let end = start + base + usize::from(idx < extra);
    start..end
}

/// Pre-synchronization of ghost copies (§3.3): "for properties that are to
/// be read in the parallel region, PGX.D copies the original values into
/// the ghost nodes prior to the execution step." Run by every worker of a
/// main phase that reads `reads`, before its first chunk, even for a
/// cancelled job (peers wait on its entries).
///
/// The worker sends its share of each peer's list of mirrored owned
/// vertices ([`Mirrors::sent_to`]) as `GhostSync` entries addressed by
/// position in that list, counts them into the machine's `ghosts_synced`
/// (the copiers add every entry they store), and waits until it reaches
/// (mirror slots + values sent) × `reads.len()`: then every mirror this
/// machine reads has landed and every owned value its workers send has
/// been loaded. Returns `false` if the cluster aborted during the wait.
///
/// [`Mirrors::sent_to`]: crate::ghost::Mirrors::sent_to
pub fn sync_ghosts(env: &mut WorkerEnv<'_>, reads: &[PropId]) -> bool {
    let m = env.machine;
    let mirrors = m.graph.mirrors();
    let target = ((mirrors.len() + mirrors.num_sent()) * reads.len()) as u64;
    if target == 0 {
        return true;
    }
    let cols: Vec<_> = reads
        .iter()
        .map(|&prop| (prop, m.props.column(prop)))
        .collect();
    let mut sent = 0;
    env.comm.set_mut_kind(MsgKind::GhostSync);
    for dst in (0..m.config.machines as u16).filter(|&dst| dst != m.id) {
        let list = mirrors.sent_to(dst);
        for k in share(list.len(), m.config.workers, env.worker_idx) {
            for (prop, col) in &cols {
                let bits = col.load_bits(list[k] as usize);
                env.comm
                    .push_mut(dst, *prop, ReduceOp::Assign, k as u32, bits);
            }
            sent += 1;
        }
    }
    env.comm.flush();
    env.comm.set_mut_kind(MsgKind::Write);
    m.telemetry
        .trace(env.worker_idx, EventKind::GhostPush, sent as u64);
    // AcqRel: the loads above happen before any worker here sees the target.
    m.ghosts_synced
        .fetch_add((sent * reads.len()) as u64, Ordering::AcqRel);
    while m.ghosts_synced.load(Ordering::Acquire) < target {
        if m.health.is_aborted() {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

/// A phase that crosses the *message-based* distributed barrier once: the
/// Figure 5b measurement, run only by [`Cluster::run_dist_barrier`]. No
/// job phase is followed by one.
///
/// [`Cluster::run_dist_barrier`]: crate::cluster::Cluster::run_dist_barrier
pub struct DistBarrierPhase {
    /// Barrier epoch each worker waits for (workers pass epochs 0,1,2,...
    /// across successive phases; the driver supplies the next epoch).
    pub epoch: u64,
}

impl Phase for DistBarrierPhase {
    fn execute(&self, env: &mut WorkerEnv<'_>) {
        let m = env.machine;
        if m.dist_barrier.arrive_local() {
            // Last local worker notifies the coordinator (machine 0).
            let _ = m.outbox_tx.send(crate::message::Envelope {
                src: m.id,
                dst: 0,
                kind: MsgKind::BarrierArrive,
                worker: 0,
                side_id: 0,
                seq: 0,
                payload: Vec::new(),
            });
        }
        m.dist_barrier.wait_release_or_abort(self.epoch, &m.health);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn share_covers_everything() {
        for len in [0usize, 1, 7, 100] {
            for parts in [1usize, 2, 3, 8] {
                let mut total = 0;
                let mut prev_end = 0;
                for idx in 0..parts {
                    let r = share(len, parts, idx);
                    assert_eq!(r.start, prev_end);
                    prev_end = r.end;
                    total += r.len();
                }
                assert_eq!(total, len, "len={len} parts={parts}");
                assert_eq!(prev_end, len);
            }
        }
    }

    #[test]
    fn job_state_completion() {
        let c = crate::cluster::Cluster::load(
            &pgxd_graph::generate::ring(8),
            crate::config::Config::test(1),
        )
        .unwrap();
        let (m, pending) = (c.machine(0), c.pending());
        let job = c.job_state(2, CancelToken::never());
        assert!(!job.is_complete(m));
        job.retire();
        assert!(!job.is_complete(m));
        pending.fetch_add(1, Ordering::SeqCst);
        job.retire();
        assert!(!job.is_complete(m), "pending entry blocks completion");
        pending.fetch_sub(1, Ordering::SeqCst);
        assert!(job.is_complete(m));
    }

    #[test]
    fn job_state_carries_cancel_token() {
        let token = CancelToken::for_job(42);
        let job = JobState::for_hosted(1, 0..1, 1, token.clone());
        assert!(!job.cancel().is_cancelled());
        token.cancel();
        assert!(job.cancel().is_cancelled());
        let job = JobState::for_hosted(1, 0..1, 1, CancelToken::never());
        assert!(!job.cancel().is_cancelled());
    }

    #[test]
    fn job_state_timings_recorded() {
        let job = JobState::for_hosted(0, 0..2, 2, CancelToken::never());
        job.mark_tasks_done(1, 0);
        job.mark_drained(1, 0);
        let t = job.timings();
        assert_eq!(t.len(), 2);
        assert!(t[1][0].drained_ns >= t[1][0].tasks_done_ns);
        assert_eq!(t[0][0].tasks_done_ns, 0);
        // A rank hosting only machine 1 of the same cluster keeps one row.
        let job = JobState::for_hosted(0, 1..2, 2, CancelToken::never());
        job.mark_tasks_done(1, 1);
        job.mark_drained(1, 1);
        let t = job.timings();
        assert_eq!(t.len(), 1);
        assert!(t[0][1].drained_ns >= t[0][1].tasks_done_ns);
    }
}
