//! The main parallel phase: the run-to-completion worker loop over the
//! chunk queue (§3.2).
//!
//! Each worker: grab a chunk → for each active vertex run the task over
//! its edges → store its fold accumulator → invoke locally-satisfied
//! continuations → opportunistically drain responses → repeat; once the
//! queue is empty, flush the request buffers and keep draining responses
//! until the job is globally complete ("a particular job completes when
//! the task list is empty and there are no unfinished remote requests").

use crate::scope::{TaskScope, FOLD_NODE_BIT};
use crate::task::{Dir, EdgeCtx, EdgeTask, NodeCtx, NodeTask, ReadDoneCtx};
use pgxd_runtime::chunk::ChunkQueue;
use pgxd_runtime::phase::{JobState, Phase, WorkerEnv};
use pgxd_runtime::props::{PropId, ReduceOp};
use std::sync::Arc;

/// Invokes the pending locally-satisfied `read_done` continuations.
fn drain_local<F: Fn(&mut ReadDoneCtx<'_, '_>)>(scope: &mut TaskScope<'_>, read_done: &F) {
    while let Some((rec, bits)) = scope.local_reads.pop() {
        let mut ctx = ReadDoneCtx {
            scope,
            node: rec.node as usize,
            aux: rec.aux,
            bits,
        };
        read_done(&mut ctx);
    }
}

/// Drains the worker's response queue once; returns whether anything was
/// processed. Fold records are folded into their cell; every other record
/// continues in `read_done`.
fn drain_responses<F: Fn(&mut ReadDoneCtx<'_, '_>)>(
    scope: &mut TaskScope<'_>,
    read_done: &F,
) -> bool {
    let mut worked = false;
    while let Some(resp) = scope.comm.try_pop_response() {
        worked = true;
        for (rec, bits) in resp.values() {
            if rec.node & FOLD_NODE_BIT != 0 {
                scope.fold_response(rec, bits);
                continue;
            }
            let mut ctx = ReadDoneCtx {
                scope,
                node: rec.node as usize,
                aux: rec.aux,
                bits,
            };
            read_done(&mut ctx);
        }
        // Local continuations first: whatever they buffer is published by
        // the same step that retires this response's entries.
        drain_local(scope, read_done);
        scope.comm.finish_response(resp);
    }
    worked
}

/// Retires one executed chunk. The entries it buffered are published
/// first: the chunk may be the phase's last work unit, and completion is
/// read off `pending` (or the wave's counters) as soon as none is
/// outstanding.
fn retire_chunk(scope: &mut TaskScope<'_>, job: &JobState) {
    scope.comm.publish_pending();
    job.retire();
}

/// Flush + drain until the phase is globally complete, then merge
/// privatized ghosts. Shared tail of both job phase kinds.
fn finish_phase<F: Fn(&mut ReadDoneCtx<'_, '_>)>(
    scope: &mut TaskScope<'_>,
    job: &JobState,
    machine_id: usize,
    worker_idx: usize,
    read_done: &F,
) {
    job.mark_tasks_done(machine_id, worker_idx);
    scope.comm.flush();
    loop {
        if drain_responses(scope, read_done) {
            scope.comm.flush();
            continue;
        }
        if job.is_complete(scope.machine) {
            break;
        }
        if scope.machine.health.is_aborted() {
            // Exact termination can never be reached once envelopes were
            // lost; fail the pending continuations and reach the barrier
            // so every thread joins (the driver surfaces the JobError).
            scope.comm.abort_in_flight();
            break;
        }
        std::thread::yield_now();
    }
    job.mark_drained(machine_id, worker_idx);
    scope.merge_privs();
    scope.publish_stats();
}

/// The main phase of an edge-iterator job.
pub(crate) struct EdgeJobPhase<T: EdgeTask> {
    pub task: Arc<T>,
    pub dir: Dir,
    pub reduces: Vec<(PropId, ReduceOp)>,
    /// One chunk queue per machine.
    pub queues: Vec<Arc<ChunkQueue>>,
    pub job: Arc<JobState>,
}

impl<T: EdgeTask> Phase for EdgeJobPhase<T> {
    fn execute(&self, env: &mut WorkerEnv<'_>) {
        let machine = env.machine;
        let machine_id = machine.id as usize;
        let worker_idx = env.worker_idx;
        let mut scope = TaskScope::new(machine, env.comm, &self.reduces);
        let task = &*self.task;
        let read_done = |ctx: &mut ReadDoneCtx<'_, '_>| task.read_done(ctx);
        let queue = &self.queues[machine_id];

        let mut claims = 0u64;
        while let Some(chunk) = queue.pop() {
            claims += 1;
            if self.job.cancel().is_cancelled() {
                // Cooperative cancellation: retire this chunk unexecuted,
                // claim-and-retire the remainder of the queue, and fall
                // through to the normal end-of-phase drain + barrier so
                // exact termination still reaches zero on every machine.
                self.job.retire();
                self.job.retire_many(queue.drain_remaining());
                break;
            }
            for node in chunk {
                {
                    let mut nctx = NodeCtx {
                        scope: &mut scope,
                        node,
                    };
                    if !task.filter(&mut nctx) {
                        continue;
                    }
                }
                let frag = match self.dir {
                    Dir::Out => &machine.graph.out,
                    Dir::In => &machine.graph.inn,
                };
                for edge in frag.edge_range(node) {
                    let target = frag.targets[edge];
                    let mut ctx = EdgeCtx {
                        scope: &mut scope,
                        node,
                        edge,
                        target,
                        dir: self.dir,
                    };
                    task.run(&mut ctx);
                }
                scope.flush_fold(node);
                drain_local(&mut scope, &read_done);
            }
            retire_chunk(&mut scope, &self.job);
            drain_responses(&mut scope, &read_done);
        }
        machine.telemetry.record_chunk_claims(claims);
        finish_phase(&mut scope, &self.job, machine_id, worker_idx, &read_done);
    }
}

/// The main phase of a node-iterator job.
pub(crate) struct NodeJobPhase<T: NodeTask> {
    pub task: Arc<T>,
    pub reduces: Vec<(PropId, ReduceOp)>,
    pub queues: Vec<Arc<ChunkQueue>>,
    pub job: Arc<JobState>,
}

impl<T: NodeTask> Phase for NodeJobPhase<T> {
    fn execute(&self, env: &mut WorkerEnv<'_>) {
        let machine = env.machine;
        let machine_id = machine.id as usize;
        let worker_idx = env.worker_idx;
        let mut scope = TaskScope::new(machine, env.comm, &self.reduces);
        let task = &*self.task;
        let read_done = |ctx: &mut ReadDoneCtx<'_, '_>| task.read_done(ctx);
        let queue = &self.queues[machine_id];

        let mut claims = 0u64;
        while let Some(chunk) = queue.pop() {
            claims += 1;
            if self.job.cancel().is_cancelled() {
                // Same cooperative-cancellation path as the edge phase.
                self.job.retire();
                self.job.retire_many(queue.drain_remaining());
                break;
            }
            // A node task cannot read locally (only a continuation can, and
            // `drain_responses` runs those), so there is no per-vertex drain.
            for node in chunk {
                let mut nctx = NodeCtx {
                    scope: &mut scope,
                    node,
                };
                if task.filter(&mut nctx) {
                    task.run(&mut nctx);
                }
            }
            retire_chunk(&mut scope, &self.job);
            drain_responses(&mut scope, &read_done);
        }
        machine.telemetry.record_chunk_claims(claims);
        finish_phase(&mut scope, &self.job, machine_id, worker_idx, &read_done);
    }
}
