//! The main parallel phase: the run-to-completion worker loop over the
//! chunk queue (§3.2).
//!
//! Each worker: push its share of the owned values of the read properties
//! to the machines that mirror them and wait until its machine's mirror
//! slots are filled → grab a
//! chunk → run an edge task's chunk prologue ([`EdgeTask::prepare`]), then
//! for each active vertex run the task over its edges (or fold them, or
//! scatter its value over them, for a task that declares a [`Reduction`]),
//! or run a node task over the whole chunk
//! ([`NodeTask::run_chunk`]) → invoke locally-satisfied
//! continuations → opportunistically drain responses → repeat; once the
//! queue is empty, flush the request buffers, hand its ghost partials on,
//! and keep draining responses until the job is globally complete ("a
//! particular job completes when the task list is empty and there are no
//! unfinished remote requests").
//!
//! A declared fold or scatter runs without the task: per chunk its two
//! columns are resolved once and `(tag, op)` is matched once
//! ([`dispatch`]), so the edge loop is monomorphic in both.
//!
//! Both ghost synchronizations of §3.3 happen inside this phase, so a job
//! is one phase whatever it reads and reduces. Read properties: each
//! machine knows how many values it will receive (its mirror slots ×
//! reads), so its workers start their chunks once a local count says they
//! have landed ([`sync_ghosts`]). Reduced properties ("first between cores
//! and then between machines"): a worker whose tasks are done merges its
//! private copies into the machine's mirror slots, and the machine's last
//! worker to merge sends the slots to their owners. Each worker then
//! retires one extra work unit, so the phase cannot complete before every
//! partial has been published and applied.

use crate::scope::TaskScope;
use crate::spec::JobSpec;
use crate::task::{
    Dir, EdgeCtx, EdgeTask, Fold, NodeChunk, NodeCtx, NodeTask, ReadDoneCtx, Reduction, Scatter,
};
use pgxd_runtime::cancel::CancelToken;
use pgxd_runtime::chunk::{Chunk, ChunkQueue};
use pgxd_runtime::localgraph::FragmentDir;
use pgxd_runtime::phase::{sync_ghosts, JobState, Phase, WorkerEnv};
use pgxd_runtime::props::{cas_reduce, reduce_bits, PropId, PropValue, ReduceOp, TypeTag};
use pgxd_runtime::worker::{Response, SideRec};
use pgxd_runtime::Cluster;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Invokes the pending locally-satisfied `read_done` continuations.
fn drain_local<T: EdgeTask>(scope: &mut TaskScope<'_>, task: &T) {
    while let Some((rec, bits)) = scope.local_reads.pop() {
        task.read_done(&mut continuation(scope, rec, bits));
    }
}

/// The context `read_done` continues in for the request `rec` with `bits`.
fn continuation<'s, 'a>(
    scope: &'s mut TaskScope<'a>,
    rec: SideRec,
    bits: u64,
) -> ReadDoneCtx<'s, 'a> {
    ReadDoneCtx {
        scope,
        node: rec.node as usize,
        aux: rec.aux,
        bits,
    }
}

/// Drains the worker's response queue once; returns whether anything was
/// processed. Every response goes to `resume`, the job's one consumer of
/// its read values, which the driver fixed for the whole job.
fn drain_responses<R>(scope: &mut TaskScope<'_>, resume: &R) -> bool
where
    R: Fn(&mut TaskScope<'_>, &Response),
{
    let mut worked = false;
    while let Some(resp) = scope.comm.try_pop_response() {
        worked = true;
        resume(scope, &resp);
        scope.comm.finish_response(resp);
    }
    worked
}

/// The consumer of an edge job that runs `task`'s edges: each value
/// continues in its `read_done`, then the local reads those chained do.
/// Local continuations go first: whatever they buffer is published by the
/// same step that retires the response's entries.
fn resume_reads<T: EdgeTask>(task: &T, scope: &mut TaskScope<'_>, resp: &Response) {
    for (rec, bits) in resp.values() {
        task.read_done(&mut continuation(scope, rec, bits));
    }
    drain_local(scope, task);
}

/// The consumer of a declared fold: each value of a remote neighbor folds
/// into its vertex's `dst` cell. Every response to a vertex's reads drains
/// on the worker that ran its edges, so a plain load and store suffice.
fn resume_fold(fold: Fold, scope: &mut TaskScope<'_>, resp: &Response) {
    let dst = scope.col(fold.dst);
    for (rec, bits) in resp.values() {
        let node = rec.node as usize;
        dst.store_bits(
            node,
            reduce_bits(fold.tag, fold.op, dst.load_bits(node), bits),
        );
    }
}

/// What both job phase kinds share besides their task.
pub(crate) struct JobCore {
    reads: Vec<PropId>,
    /// What the job reduces; the driver bottom-fills their ghost slots.
    pub reduces: Vec<(PropId, ReduceOp)>,
    /// One chunk queue per machine.
    queues: Vec<Arc<ChunkQueue>>,
    pub job: Arc<JobState>,
    /// Per machine: its workers that have not merged their private ghost
    /// copies yet. The worker that takes it to zero sends the partials.
    unmerged: Vec<AtomicUsize>,
}

impl JobCore {
    /// A main phase of the job `spec`, plus what its declared `reduction`
    /// implies ([`JobSpec::declare`]; a contradiction panics here, on the
    /// driver), over `queues` on the machines `cluster` hosts. Its work
    /// units are the chunks plus one per worker, retired after that
    /// worker's ghost merge (and, for the last, the partials' flush).
    pub fn new(
        cluster: &Cluster,
        spec: &JobSpec,
        reduction: Option<Reduction>,
        queues: Vec<Arc<ChunkQueue>>,
        cancel: &CancelToken,
    ) -> Self {
        let mut spec = spec.clone();
        if let Some(reduction) = reduction {
            spec.declare(reduction);
        }
        let chunks: usize = queues.iter().map(|q| q.len()).sum();
        let workers = cluster.config().workers;
        JobCore {
            reads: spec.reads,
            reduces: spec.reduces,
            job: cluster.job_state(chunks + cluster.phase_units(), cancel.clone()),
            unmerged: queues.iter().map(|_| AtomicUsize::new(workers)).collect(),
            queues,
        }
    }

    /// One worker's share of the phase: the ghost values of the read
    /// properties are pushed and awaited, `chunk` runs over every chunk the
    /// worker claims, then it passes its ghost partials on and drains until
    /// the phase is globally complete. `resume` consumes every response
    /// the worker drains.
    fn run<C, R>(&self, env: &mut WorkerEnv<'_>, resume: &R, mut chunk: C)
    where
        C: FnMut(&mut TaskScope<'_>, Chunk),
        R: Fn(&mut TaskScope<'_>, &Response),
    {
        // An aborted cluster leaves the wait and skips the chunks; the
        // drain below then falls through to the barrier.
        let synced = sync_ghosts(env, &self.reads);
        let machine = env.machine;
        let machine_id = machine.id as usize;
        let mut scope = TaskScope::new(machine, env.comm, &self.reads, &self.reduces);
        let (queue, job) = (&self.queues[machine_id], &*self.job);
        let mut claims = 0u64;
        while let Some(nodes) = synced.then(|| queue.pop()).flatten() {
            claims += 1;
            if job.cancel().is_cancelled() {
                // Cooperative cancellation: retire this chunk unexecuted,
                // claim-and-retire the remainder of the queue, and fall
                // through to the normal end-of-phase drain + barrier so
                // exact termination still reaches zero on every machine.
                job.retire_many(1 + queue.drain_remaining());
                break;
            }
            chunk(&mut scope, nodes);
            // Publish before retire: the chunk may be the phase's last work
            // unit, and completion is read off `pending` (or the wave's
            // counters) as soon as none is outstanding.
            scope.comm.publish_pending();
            job.retire();
            drain_responses(&mut scope, resume);
        }
        machine.telemetry.record_chunk_claims(claims);

        job.mark_tasks_done(machine_id, env.worker_idx);
        scope.comm.flush();
        // Private ghost copies are written only from an edge's own step —
        // `write_nbr` or a declared scatter — never by a continuation (it
        // reduces by global id, which reaches the owner), so this worker's
        // copies are final. AcqRel:
        // the last worker's acquire sees every earlier worker's merge. A
        // cancelled job's partials would never be read.
        scope.merge_privs();
        if self.unmerged[machine_id].fetch_sub(1, Ordering::AcqRel) == 1
            && !job.cancel().is_cancelled()
        {
            scope.send_ghost_partials();
        }
        job.retire(); // every entry is published: `flush` above or in the send
        loop {
            if drain_responses(&mut scope, resume) {
                scope.comm.flush();
                continue;
            }
            if job.is_complete(machine) {
                break;
            }
            if machine.health.is_aborted() {
                // Exact termination can never be reached once envelopes were
                // lost; fail the pending continuations and reach the barrier
                // so every thread joins (the driver surfaces the JobError).
                scope.comm.abort_in_flight();
                break;
            }
            std::thread::yield_now();
        }
        job.mark_drained(machine_id, env.worker_idx);
        scope.publish_stats();
    }
}

/// The main phase of an edge-iterator job.
pub(crate) struct EdgeJobPhase<T: EdgeTask> {
    pub task: Arc<T>,
    /// The task's declaration, asked for once, on the driver.
    pub reduction: Option<Reduction>,
    pub dir: Dir,
    pub core: JobCore,
}

impl<T: EdgeTask> Phase for EdgeJobPhase<T> {
    fn execute(&self, env: &mut WorkerEnv<'_>) {
        let task = &*self.task;
        let frag = match self.dir {
            Dir::Out => &env.machine.graph.out,
            Dir::In => &env.machine.graph.inn,
        };
        let prepare = |scope: &mut TaskScope<'_>, nodes: &Chunk| {
            task.prepare(&mut NodeChunk::new(scope, nodes.clone()))
        };
        let reads = |scope: &mut TaskScope<'_>, resp: &Response| resume_reads(task, scope, resp);
        match self.reduction {
            Some(Reduction::Fold(fold)) => {
                let folds =
                    |scope: &mut TaskScope<'_>, resp: &Response| resume_fold(fold, scope, resp);
                self.core.run(env, &folds, |scope, nodes| {
                    prepare(scope, &nodes);
                    dispatch(fold.tag, fold.op, Declared(scope, frag, task, fold, nodes))
                })
            }
            Some(Reduction::Scatter(scatter)) => self.core.run(env, &reads, |scope, nodes| {
                prepare(scope, &nodes);
                let chunk = Declared(scope, frag, task, scatter, nodes);
                dispatch(scatter.tag, scatter.op, chunk)
            }),
            None => self.core.run(env, &reads, |scope, nodes| {
                prepare(scope, &nodes);
                for node in nodes {
                    if !task.filter(&mut NodeCtx { scope, node }) {
                        continue;
                    }
                    for edge in frag.edge_range(node) {
                        let target = frag.targets[edge];
                        let mut ctx = EdgeCtx {
                            scope,
                            node,
                            edge,
                            target,
                            dir: self.dir,
                        };
                        task.run(&mut ctx);
                    }
                    drain_local(scope, task);
                }
            }),
        }
    }
}

/// A chunk loop that is monomorphic in a value type and a reduction:
/// [`dispatch`] matches `(tag, op)` once per chunk and calls `run` with
/// both fixed, so `combine` is one constant-folded [`reduce_bits`].
trait ReduceLoop {
    fn run<V: PropValue>(self, op: ReduceOp, combine: impl Fn(V, V) -> V);
}

fn dispatch(tag: TypeTag, op: ReduceOp, body: impl ReduceLoop) {
    match tag {
        TypeTag::F64 => dispatch_op::<f64>(op, body),
        TypeTag::I64 => dispatch_op::<i64>(op, body),
        TypeTag::U64 => dispatch_op::<u64>(op, body),
        TypeTag::U32 => dispatch_op::<u32>(op, body),
        TypeTag::Bool => dispatch_op::<bool>(op, body),
    }
}

fn dispatch_op<V: PropValue>(op: ReduceOp, body: impl ReduceLoop) {
    macro_rules! with {
        ($op:expr) => {
            body.run::<V>($op, |a: V, b: V| {
                V::from_bits(reduce_bits(V::TAG, $op, a.to_bits(), b.to_bits()))
            })
        };
    }
    match op {
        ReduceOp::Sum => with!(ReduceOp::Sum),
        ReduceOp::Min => with!(ReduceOp::Min),
        ReduceOp::Max => with!(ReduceOp::Max),
        ReduceOp::Or => with!(ReduceOp::Or),
        ReduceOp::And => with!(ReduceOp::And),
        ReduceOp::Assign => with!(ReduceOp::Assign),
    }
}

/// One chunk of a declared reduction `D` — a [`Fold`] or a [`Scatter`] —
/// of a task over a fragment's edges.
struct Declared<'c, 'a, T, D>(&'c mut TaskScope<'a>, &'c FragmentDir, &'c T, D, Chunk);

/// Folds the neighbors of each vertex of the chunk that passes the filter:
/// the vertex's cell is loaded into a register, every local or ghost
/// neighbor's value is combined into it, and it is stored back after the
/// vertex's last edge. A remote neighbor is a buffered read whose response
/// the drain loop folds into the cell ([`resume_fold`]); none drains
/// before the chunk ends, so the store cannot overwrite one.
impl<T: EdgeTask> ReduceLoop for Declared<'_, '_, T, Fold> {
    fn run<V: PropValue>(self, _op: ReduceOp, combine: impl Fn(V, V) -> V) {
        let Declared(scope, frag, task, fold, nodes) = self;
        let (src_col, dst_col) = (scope.column(fold.src), scope.column(fold.dst));
        let (src, dst) = (src_col.cells(), dst_col.cells());
        let mut local_reads = 0;
        for node in nodes {
            if !task.filter(&mut NodeCtx { scope, node }) {
                continue;
            }
            let rec = SideRec {
                node: node as u32,
                aux: 0,
            };
            let mut acc = V::from_bits(dst[node].load(Ordering::Relaxed));
            for &target in &frag.targets[frag.edge_range(node)] {
                if target.is_remote() {
                    let gid = target.global_id();
                    scope
                        .comm
                        .push_read(gid.machine(), fold.src, gid.offset(), rec);
                } else {
                    local_reads += 1;
                    let bits = src[target.local_index()].load(Ordering::Relaxed);
                    acc = combine(acc, V::from_bits(bits));
                }
            }
            dst[node].store(acc.to_bits(), Ordering::Relaxed);
        }
        scope.count_local_reads(local_reads);
    }
}

/// Scatters the value of each vertex of the chunk that passes the filter:
/// `src[v]` is loaded once, then each target gets a write entry if remote,
/// a plain combine into the worker's private copy if a ghost (the scatter
/// declares `(dst, op)` reduced, so every worker keeps one), and otherwise the in-place reduction — a CAS, or a store for
/// `Assign`.
impl<T: EdgeTask> ReduceLoop for Declared<'_, '_, T, Scatter> {
    fn run<V: PropValue>(self, op: ReduceOp, combine: impl Fn(V, V) -> V) {
        let Declared(scope, frag, task, scatter, nodes) = self;
        let (src_col, dst_col) = (scope.column(scatter.src), scope.column(scatter.dst));
        let (src, dst) = (src_col.cells(), dst_col.cells());
        let num_local = scope.machine.graph.num_local();
        let slot = scope.private_slot(scatter.dst, op);
        let mut local_writes = 0;
        for node in nodes {
            if !task.filter(&mut NodeCtx { scope, node }) {
                continue;
            }
            let bits = src[node].load(Ordering::Relaxed);
            let val = V::from_bits(bits);
            let (comm, private) = scope.comm_and_private(slot);
            for &target in &frag.targets[frag.edge_range(node)] {
                if target.is_remote() {
                    let gid = target.global_id();
                    comm.push_mut(gid.machine(), scatter.dst, op, gid.offset(), bits);
                    continue;
                }
                let index = target.local_index();
                if index >= num_local {
                    let copy = &mut private[index - num_local];
                    *copy = combine(V::from_bits(*copy), val).to_bits();
                    continue;
                }
                local_writes += 1;
                if op == ReduceOp::Assign {
                    dst[index].store(bits, Ordering::Relaxed);
                } else {
                    cas_reduce(&dst[index], bits, |cur, new| {
                        combine(V::from_bits(cur), V::from_bits(new)).to_bits()
                    });
                }
            }
        }
        scope.count_local_writes(local_writes);
    }
}

/// The main phase of a node-iterator job.
pub(crate) struct NodeJobPhase<T: NodeTask> {
    pub task: Arc<T>,
    pub core: JobCore,
}

impl<T: NodeTask> Phase for NodeJobPhase<T> {
    fn execute(&self, env: &mut WorkerEnv<'_>) {
        let task = &*self.task;
        // A node task issues no read (a `NodeCtx` cannot), so no response
        // reaches it and no local read waits between its vertices.
        let no_response = |_: &mut TaskScope<'_>, _: &Response| {};
        self.core.run(env, &no_response, |scope, nodes| {
            task.run_chunk(&mut NodeChunk::new(scope, nodes))
        });
    }
}
