//! Worker-local execution scope shared by all task contexts of one phase.
//!
//! The scope is where the Data Manager decisions of §3.3 happen at
//! runtime: a property access against an [`EncTarget`] is resolved to a
//! plain local load/store, a privatized ghost-slot reduction, or
//! a buffered remote request. A ghost slot stands in for its vertex only
//! for what the job declares; any other access goes to the owner.

use pgxd_runtime::ids::MachineId;
use pgxd_runtime::localgraph::EncTarget;
use pgxd_runtime::machine::MachineState;
use pgxd_runtime::message::MsgKind;
use pgxd_runtime::props::{bottom_bits, reduce_bits, Column, PropId, ReduceOp, TypeTag};
use pgxd_runtime::telemetry::EventKind;
use pgxd_runtime::worker::{SideRec, WorkerComm};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A thread-private ghost copy of one reduced property (§3.3 "Ghost
/// Privatization": "during the parallel region, reductions to the
/// properties are applied to the thread-private copies without using
/// atomic instructions").
struct PrivGhost {
    prop: PropId,
    op: ReduceOp,
    tag: TypeTag,
    bottom: u64,
    vals: Vec<u64>,
}

/// Per-worker, per-phase execution state.
pub(crate) struct TaskScope<'a> {
    pub machine: &'a Arc<MachineState>,
    pub comm: &'a mut WorkerComm,
    /// The columns this phase has touched, in first-touch order. A job
    /// names a handful of properties, so a scan of their ids resolves a
    /// column without the registry — and the cache never grows with how
    /// many ids the engine has issued over its lifetime.
    cols: Vec<(PropId, Arc<Column>)>,
    /// Thread-private ghost copies (empty when the machine has no mirror
    /// slots or the job reduces nothing).
    privs: Vec<PrivGhost>,
    /// The properties the job declares read: the only ones whose ghost
    /// slots hold the owner's value.
    reads: &'a [PropId],
    /// Locally satisfied reads waiting for their `read_done` callback
    /// ("if the other node is in the same machine, read_done() is
    /// immediately invoked with the pointer to the local data").
    pub(crate) local_reads: Vec<(SideRec, u64)>,
    /// Batched local-access statistics, published at phase end.
    stat_local_reads: u64,
    stat_local_writes: u64,
}

impl<'a> TaskScope<'a> {
    pub fn new(
        machine: &'a Arc<MachineState>,
        comm: &'a mut WorkerComm,
        reads: &'a [PropId],
        reduces: &[(PropId, ReduceOp)],
    ) -> Self {
        let num_ghosts = machine.graph.num_ghosts();
        let privs = if num_ghosts > 0 {
            reduces
                .iter()
                .map(|&(prop, op)| {
                    let tag = machine.props.column(prop).tag();
                    let bottom = bottom_bits(tag, op);
                    PrivGhost {
                        prop,
                        op,
                        tag,
                        bottom,
                        vals: vec![bottom; num_ghosts],
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        TaskScope {
            machine,
            comm,
            cols: Vec::new(),
            privs,
            reads,
            local_reads: Vec::new(),
            stat_local_reads: 0,
            stat_local_writes: 0,
        }
    }

    /// The column of property `p`: a scan of the phase's few cached ids,
    /// falling back to the registry on the first touch only.
    #[inline(always)]
    pub fn col(&mut self, p: PropId) -> &Column {
        let slot = self.slot(p);
        &self.cols[slot].1
    }

    /// [`Self::col`] as a handle of its own, for a loop that resolves its
    /// columns once and still needs the scope.
    pub fn column(&mut self, p: PropId) -> Arc<Column> {
        let slot = self.slot(p);
        Arc::clone(&self.cols[slot].1)
    }

    #[inline(always)]
    fn slot(&mut self, p: PropId) -> usize {
        match self.cols.iter().position(|(id, _)| *id == p) {
            Some(slot) => slot,
            None => self.resolve(p),
        }
    }

    /// First touch of `p` in this phase: one registry lookup, then cached.
    #[cold]
    #[inline(never)]
    fn resolve(&mut self, p: PropId) -> usize {
        self.cols.push((p, self.machine.props.column(p)));
        self.cols.len() - 1
    }

    /// Number of columns the phase has cached.
    #[cfg(test)]
    pub(crate) fn cached_cols(&self) -> usize {
        self.cols.len()
    }

    /// Plain load of a local column index.
    #[inline]
    pub fn load_local(&mut self, p: PropId, index: usize) -> u64 {
        self.col(p).load_bits(index)
    }

    /// Plain store to a local column index.
    #[inline]
    pub fn store_local(&mut self, p: PropId, index: usize, bits: u64) {
        self.col(p).store_bits(index, bits);
    }

    /// Applies a write-reduction against an encoded target: the §3.3 /
    /// §3.4 dispatch (ghost-private / local-atomic / buffered-remote).
    #[inline]
    pub fn reduce_target(&mut self, target: EncTarget, p: PropId, op: ReduceOp, bits: u64) {
        if target.is_remote() {
            let gid = target.global_id();
            self.comm.push_mut(gid.machine(), p, op, gid.offset(), bits);
            return;
        }
        let index = target.local_index();
        let num_local = self.machine.graph.num_local();
        if index >= num_local {
            let ord = index - num_local;
            if let Some(slot) = self.private_slot(p, op) {
                let pg = &mut self.privs[slot];
                pg.vals[ord] = reduce_bits(pg.tag, op, pg.vals[ord], bits);
            } else {
                // Not a declared `(p, op)`: no partial of it is sent, so
                // the write goes to the owner like a remote one.
                let v = self.machine.graph.mirrors().node_at(ord);
                self.reduce_global(v, p, op, bits);
            }
            return;
        }
        self.stat_local_writes += 1;
        self.col(p).reduce_bits_atomic(index, op, bits);
    }

    /// The index of the private ghost copy of `(p, op)`, if the worker
    /// keeps one.
    pub fn private_slot(&self, p: PropId, op: ReduceOp) -> Option<usize> {
        self.privs.iter().position(|pg| pg.prop == p && pg.op == op)
    }

    /// The worker's buffers with the private ghost copy `slot` (empty for
    /// `None`), borrowed together for a loop that writes through both.
    #[inline]
    pub fn comm_and_private(&mut self, slot: Option<usize>) -> (&mut WorkerComm, &mut [u64]) {
        let vals = match slot {
            Some(slot) => &mut self.privs[slot].vals[..],
            None => &mut [],
        };
        (&mut *self.comm, vals)
    }

    /// Issues a read against an encoded target; local targets are answered
    /// immediately into `local_reads`, remote ones are buffered.
    #[inline]
    pub fn read_target(&mut self, rec: SideRec, target: EncTarget, p: PropId) {
        if target.is_remote() {
            let gid = target.global_id();
            self.comm.push_read(gid.machine(), p, gid.offset(), rec);
            return;
        }
        let index = target.local_index();
        let num_local = self.machine.graph.num_local();
        if index >= num_local && !self.reads.contains(&p) {
            // Only a declared read's ghost slots are refreshed for the job.
            let v = self.machine.graph.mirrors().node_at(index - num_local);
            self.read_global(rec, v, p);
        } else {
            self.read_local(rec, p, index);
        }
    }

    /// Answers a read of local column index `index` into `local_reads`.
    #[inline]
    fn read_local(&mut self, rec: SideRec, p: PropId, index: usize) {
        self.stat_local_reads += 1;
        let bits = self.col(p).load_bits(index);
        self.local_reads.push((rec, bits));
    }

    /// Reduces a value into an arbitrary vertex by *global* id, local or
    /// not (used by node tasks that target non-neighbors).
    pub fn reduce_global(&mut self, v: pgxd_graph::NodeId, p: PropId, op: ReduceOp, bits: u64) {
        let part = &self.machine.partition;
        let owner: MachineId = part.owner(v);
        let offset = v - part.start(owner);
        if owner == self.machine.id {
            self.stat_local_writes += 1;
            self.col(p).reduce_bits_atomic(offset as usize, op, bits);
        } else {
            self.comm.push_mut(owner, p, op, offset, bits);
        }
    }

    /// Issues a read of an arbitrary vertex by *global* id, local or not —
    /// the step a continuation chains onto a response.
    pub fn read_global(&mut self, rec: SideRec, v: pgxd_graph::NodeId, p: PropId) {
        let part = &self.machine.partition;
        let owner: MachineId = part.owner(v);
        let offset = v - part.start(owner);
        if owner == self.machine.id {
            self.read_local(rec, p, offset as usize);
        } else {
            self.comm.push_read(owner, p, offset, rec);
        }
    }

    /// Adds `n` locally answered reads to the batched statistics.
    #[inline]
    pub fn count_local_reads(&mut self, n: u64) {
        self.stat_local_reads += n;
    }

    /// Adds `n` local (non-ghost) writes to the batched statistics.
    #[inline]
    pub fn count_local_writes(&mut self, n: u64) {
        self.stat_local_writes += n;
    }

    /// Publishes batched local-access statistics to the machine counters.
    pub fn publish_stats(&mut self) {
        if self.stat_local_reads > 0 {
            self.machine
                .stats
                .local_reads
                .fetch_add(self.stat_local_reads, Ordering::Relaxed);
            self.stat_local_reads = 0;
        }
        if self.stat_local_writes > 0 {
            self.machine
                .stats
                .local_writes
                .fetch_add(self.stat_local_writes, Ordering::Relaxed);
            self.stat_local_writes = 0;
        }
    }

    /// Merges thread-private ghost partials into the machine's shared
    /// ghost slots (stage one of the two-staged ghost synchronization:
    /// "first between cores and then between machines").
    pub fn merge_privs(&mut self) {
        let m = self.machine;
        for pg in &self.privs {
            let col = m.props.column(pg.prop);
            for (ord, &bits) in pg.vals.iter().enumerate() {
                if bits != pg.bottom {
                    col.reduce_bits_atomic(m.graph.num_local() + ord, pg.op, bits);
                }
            }
        }
    }

    /// Stage two, run by the machine's last worker to merge: one
    /// `GhostReduce` entry to the owner per mirror slot and reduced
    /// property that left bottom, flushed before returning. No mutation
    /// entry may be buffered on entry.
    pub fn send_ghost_partials(&mut self) {
        let m = self.machine;
        if self.privs.is_empty() {
            return; // no mirrors, or nothing reduced
        }
        let (mirrors, num_local) = (m.graph.mirrors(), m.graph.num_local());
        m.telemetry.trace(
            self.comm.worker() as usize,
            EventKind::GhostReduce,
            mirrors.len() as u64,
        );
        let cols: Vec<_> = self
            .privs
            .iter()
            .map(|pg| (pg, m.props.column(pg.prop)))
            .collect();
        self.comm.set_mut_kind(MsgKind::GhostReduce);
        for owner in (0..m.config.machines as MachineId).filter(|&o| o != m.id) {
            let owner_start = m.partition.start(owner);
            for &slot in mirrors.from_owner(owner) {
                let slot = slot as usize;
                let owner_offset = mirrors.node_at(slot) - owner_start;
                for (pg, col) in &cols {
                    let bits = col.load_bits(num_local + slot);
                    if bits != pg.bottom {
                        self.comm
                            .push_mut(owner, pg.prop, pg.op, owner_offset, bits);
                    }
                }
            }
        }
        self.comm.flush();
        self.comm.set_mut_kind(MsgKind::Write);
    }
}

#[cfg(test)]
mod tests {
    use crate::{BuildEngine, Engine, JobSpec, NodeCtx, NodeTask, Prop};
    use pgxd_graph::generate;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Copies `src` to `dst` and records the largest column cache any
    /// worker's scope reached.
    struct Copy {
        src: Prop<i64>,
        dst: Prop<i64>,
        max_cached: Arc<AtomicUsize>,
    }
    impl NodeTask for Copy {
        fn run(&self, ctx: &mut NodeCtx<'_, '_>) {
            let v = ctx.get(self.src);
            ctx.set(self.dst, v);
            self.max_cached
                .fetch_max(ctx.scope.cached_cols(), Ordering::Relaxed);
        }
    }

    /// Property ids are never reused, so a long-lived engine issues large
    /// ones; a phase's set-up and cache must follow the properties the job
    /// touches, not the magnitude of their ids.
    #[test]
    fn scope_cache_is_sized_by_live_props_not_id_magnitude() {
        let g = generate::ring(16);
        let mut e = Engine::builder().machines(2).engine(&g).unwrap();
        for _ in 0..5000 {
            let p = e.add_prop("scratch", 0i64);
            e.drop_prop(p);
        }
        let src = e.add_prop("src", 7i64);
        let dst = e.add_prop("dst", 0i64);
        assert!(dst.id().0 >= 5000);
        let max_cached = Arc::new(AtomicUsize::new(0));
        e.try_run_node_job(
            &JobSpec::new(),
            Copy {
                src,
                dst,
                max_cached: max_cached.clone(),
            },
        )
        .unwrap();
        assert_eq!(e.gather::<i64>(dst), vec![7i64; 16]);
        assert_eq!(max_cached.load(Ordering::Relaxed), 2);
    }
}
