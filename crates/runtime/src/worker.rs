//! Per-worker communication state: request buffers and side structures.
//!
//! §3.2: "request messages are accumulated separately by each worker.
//! While buffering up the remote requests into a message, the Data Manager
//! maintains a corresponding side data structure that logs the tasks the
//! requests originated from, in the same order. [...] When the response
//! message is received [...] using the side structure, the worker can
//! iterate over the payload of the received message and invoke continuation
//! methods on the corresponding task object."
//!
//! [`WorkerComm`] owns, for one worker thread:
//! * one read-request buffer and one mutation buffer per destination
//!   machine, sealed into envelopes when full or at flush;
//! * the side-structure slab mapping in-flight `side_id`s to their
//!   continuation records;
//! * the worker's response receive queue.
//!
//! Reads are the only requests answered: every response is a `ReadResp`,
//! and its record `i` continues on its value `i` ([`Response::values`]).
//! Writes are one-way.

use crate::buffer::BufferPool;
use crate::health::{ClusterHealth, JobError};
use crate::ids::MachineId;
use crate::message::{
    mut_entry_count, push_ack_entry, push_mut_entry, push_read_entry, Envelope, MsgKind,
    ACK_ENTRY_BYTES, MUT_ENTRY_BYTES, READ_ENTRY_BYTES, RESP_ENTRY_BYTES,
};
use crate::props::{PropId, ReduceOp};
use crate::reliable::DedupWindow;
use crate::stats::MachineStats;
use crate::telemetry::{EventKind, Telemetry};
use crossbeam::channel::{Receiver, Sender};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// Communication tuning for one worker: the knobs that shape the fast
/// path, bundled so [`WorkerComm::new`] doesn't accumulate loose scalar
/// arguments. Built by the cluster from the validated [`Config`]
/// (`buffer_bytes`, `pool_shards`).
///
/// [`Config`]: crate::config::Config
#[derive(Clone)]
pub struct CommTuning {
    /// Bytes per message buffer: a buffer seals when one more entry would
    /// not fit.
    pub buffer_bytes: usize,
    /// Buffer-pool shard hint for this worker (its worker index).
    pub pool_shard: usize,
}

impl CommTuning {
    /// Shard 0 — for tests and detached endpoints.
    pub fn fixed(buffer_bytes: usize) -> Self {
        CommTuning {
            buffer_bytes,
            pool_shard: 0,
        }
    }
}

/// One continuation record: which task (node) the request belongs to plus a
/// free-form tag the task can use to disambiguate multiple callbacks
/// ("the user can implement a state machine to distinguish multiple
/// callbacks").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SideRec {
    /// Local index of the current node of the originating task.
    pub node: u32,
    /// User tag (edge index, state-machine step, ...).
    pub aux: u64,
}

/// Slab of in-flight side structures — the continuation records logged
/// while a request buffer filled, one per wire entry — indexed by the
/// `side_id` echoed through request/response headers.
#[derive(Debug, Default)]
struct SideSlab {
    slots: Vec<Option<Vec<SideRec>>>,
    free: Vec<u32>,
}

impl SideSlab {
    fn insert(&mut self, recs: Vec<SideRec>) -> u32 {
        match self.free.pop() {
            Some(id) => {
                debug_assert!(self.slots[id as usize].is_none());
                self.slots[id as usize] = Some(recs);
                id
            }
            None => {
                self.slots.push(Some(recs));
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Retires slot `id`, returning its records — or `None` when the slot
    /// is not in flight (out-of-range, never issued, or already consumed
    /// by an earlier response: the duplicated-response symptom).
    fn take(&mut self, id: u32) -> Option<Vec<SideRec>> {
        let recs = self.slots.get_mut(id as usize)?.take()?;
        self.free.push(id);
        Some(recs)
    }

    /// Abandons every in-flight slot, returning the total record count.
    fn abandon(&mut self) -> usize {
        let mut n = 0;
        for (id, slot) in self.slots.iter_mut().enumerate() {
            if let Some(recs) = slot.take() {
                n += recs.len();
                self.free.push(id as u32);
            }
        }
        n
    }

    fn in_flight(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

/// A sealed response ready for continuation processing.
#[derive(Debug)]
pub struct Response {
    /// The envelope as received (a `ReadResp`).
    pub env: Envelope,
    /// The continuation records logged when the requests were buffered,
    /// in request order: record `i` continues on wire entry `i`.
    pub recs: Vec<SideRec>,
}

impl Response {
    /// The read-response value for record `i` (a `ReadResp` payload).
    #[inline]
    pub fn read_value(&self, i: usize) -> u64 {
        crate::message::resp_entry(&self.env.payload, i)
    }

    /// Every continuation record with the read value it continues on, in
    /// request order — the one fan-out both drain loops run.
    pub fn values(&self) -> impl Iterator<Item = (SideRec, u64)> + '_ {
        let payload = &self.env.payload[..];
        // `zip` would silently drop the continuations of a short
        // response; fail as loudly as an indexed read would.
        assert!(
            payload.len() >= self.recs.len() * RESP_ENTRY_BYTES,
            "read response carries fewer values than requests"
        );
        let values = payload.chunks_exact(RESP_ENTRY_BYTES).map(|bytes| {
            u64::from_le_bytes(bytes.try_into().expect("chunks_exact yields 8 bytes"))
        });
        self.recs.iter().copied().zip(values)
    }
}

/// An open per-destination request buffer: wire payload plus the
/// continuation records awaiting its responses, one per entry.
type RequestBuffer = (Vec<u8>, Vec<SideRec>);

/// Per-worker communication endpoint.
pub struct WorkerComm {
    machine: MachineId,
    worker: u16,
    buffer_bytes: usize,
    /// Buffer-pool shard this worker recycles through.
    pool_shard: usize,
    read_payloads: Vec<Option<RequestBuffer>>,
    mut_payloads: Vec<Option<Vec<u8>>>,
    mut_kind: MsgKind,
    slab: SideSlab,
    resp_rx: Receiver<Envelope>,
    outbox: Sender<Envelope>,
    pool: Arc<BufferPool>,
    pending: Arc<AtomicI64>,
    /// Entries buffered since the last publish, not yet counted in
    /// `pending`: the per-entry path touches no shared cache line. Every
    /// one of them sits in an unsealed buffer — see
    /// [`WorkerComm::publish_pending`] for where the count is published.
    unpublished: i64,
    telemetry: Arc<Telemetry>,
    stats: Arc<MachineStats>,
    health: Arc<ClusterHealth>,
    /// Distributed-termination counters, attached (via
    /// [`WorkerComm::attach_term`]) only when the machine runs the wave;
    /// every `pending` update below is mirrored into it with the same
    /// counts.
    term: Option<Arc<crate::term::TermState>>,
    /// Whether the reliability protocol is on: responses are then acked
    /// and dedup-filtered before their continuations run.
    reliable: bool,
    /// Response-lane duplicate-suppression windows, one per source
    /// machine. Worker-owned, hence lock-free.
    resp_dedup: Vec<DedupWindow>,
    /// Send timestamps per `side_id` (ns since the telemetry epoch) for
    /// remote-read round-trip measurement. Only written when telemetry is
    /// enabled.
    sent_at: Vec<u64>,
    /// Pool-exhaustion count already traced, to report only deltas.
    last_exhausted: u64,
    rec_pool: Vec<Vec<SideRec>>,
    // Entry statistics are batched locally and published at flush time so
    // the per-edge hot path touches no shared counters.
    stat_reads: u64,
    stat_writes: u64,
    stat_ghosts: u64,
}

impl WorkerComm {
    /// Creates the communication state for worker `worker` of `machine` in
    /// a cluster of `num_machines`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        machine: MachineId,
        worker: u16,
        num_machines: usize,
        tuning: CommTuning,
        resp_rx: Receiver<Envelope>,
        outbox: Sender<Envelope>,
        pool: Arc<BufferPool>,
        pending: Arc<AtomicI64>,
        telemetry: Arc<Telemetry>,
        health: Arc<ClusterHealth>,
        reliable: bool,
    ) -> Self {
        let stats = telemetry.stats().clone();
        WorkerComm {
            machine,
            worker,
            buffer_bytes: tuning.buffer_bytes,
            pool_shard: tuning.pool_shard,
            read_payloads: (0..num_machines).map(|_| None).collect(),
            mut_payloads: (0..num_machines).map(|_| None).collect(),
            mut_kind: MsgKind::Write,
            slab: SideSlab::default(),
            resp_rx,
            outbox,
            pool,
            pending,
            unpublished: 0,
            telemetry,
            stats,
            health,
            term: None,
            reliable,
            resp_dedup: (0..num_machines).map(|_| DedupWindow::default()).collect(),
            sent_at: Vec::new(),
            last_exhausted: 0,
            rec_pool: Vec::new(),
            stat_reads: 0,
            stat_writes: 0,
            stat_ghosts: 0,
        }
    }

    /// Attaches the machine's distributed-termination state: from here on
    /// every `pending` increment/decrement this comm performs is mirrored
    /// into the monotonic `inc`/`dec` wave counters. Only machines running
    /// the wave (`strict_distributed`) attach; the rest rely on `pending`.
    pub fn attach_term(&mut self, term: Arc<crate::term::TermState>) {
        self.term = Some(term);
    }

    /// This worker's machine.
    pub fn machine(&self) -> MachineId {
        self.machine
    }

    /// This worker's index on its machine.
    pub fn worker(&self) -> u16 {
        self.worker
    }

    /// Selects the message kind mutation entries are sent under. Only
    /// valid while all mutation buffers are empty (phases switch between
    /// `Write`, `GhostSync` and `GhostReduce`).
    pub fn set_mut_kind(&mut self, kind: MsgKind) {
        debug_assert!(
            self.mut_payloads.iter().all(|p| p.is_none()),
            "cannot switch mutation kind with entries buffered"
        );
        self.mut_kind = kind;
    }

    /// Buffers a remote read request to `dst` and logs the continuation
    /// record; every read is a wire entry of its own. Seals automatically
    /// when the buffer is full.
    pub fn push_read(&mut self, dst: MachineId, prop: PropId, offset: u32, rec: SideRec) {
        self.unpublished += 1;
        self.stat_reads += 1;
        let (pool, shard, rec_pool) = (&self.pool, self.pool_shard, &mut self.rec_pool);
        let (buf, recs) = self.read_payloads[dst as usize].get_or_insert_with(|| {
            (
                pool.acquire_or_alloc_on(shard),
                rec_pool.pop().unwrap_or_default(),
            )
        });
        push_read_entry(buf, prop.0, offset);
        recs.push(rec);
        if buf.len() + READ_ENTRY_BYTES > self.buffer_bytes {
            self.seal_read(dst);
        }
    }

    /// Buffers a remote mutation (write reduction / ghost sync entry).
    pub fn push_mut(&mut self, dst: MachineId, prop: PropId, op: ReduceOp, offset: u32, bits: u64) {
        self.unpublished += 1;
        match self.mut_kind {
            MsgKind::Write => self.stat_writes += 1,
            _ => self.stat_ghosts += 1,
        }
        let (pool, shard) = (&self.pool, self.pool_shard);
        let buf =
            self.mut_payloads[dst as usize].get_or_insert_with(|| pool.acquire_or_alloc_on(shard));
        push_mut_entry(buf, prop.0, op, offset, bits);
        if buf.len() + MUT_ENTRY_BYTES > self.buffer_bytes {
            self.seal_mut(dst);
        }
    }

    /// Telemetry for one sealed buffer (fill ratio, flush trace event)
    /// and — for request kinds expecting a
    /// response — the send timestamp for round-trip measurement plus
    /// side-slab occupancy.
    fn note_seal(&mut self, payload_len: usize, side_id: Option<u32>) {
        if !self.telemetry.enabled() {
            return;
        }
        self.telemetry
            .record_flush_fill((payload_len * 100 / self.buffer_bytes.max(1)) as u64);
        self.telemetry.trace(
            self.worker as usize,
            EventKind::BufferFlush,
            payload_len as u64,
        );
        if let Some(id) = side_id {
            self.telemetry
                .record_side_occupancy(self.slab.in_flight() as u64);
            let i = id as usize;
            if self.sent_at.len() <= i {
                self.sent_at.resize(i + 1, 0);
            }
            self.sent_at[i] = self.telemetry.now_ns();
        }
    }

    /// Adds the entries buffered since the last publish to the
    /// cluster-global `pending` counter (and the termination wave's `inc`).
    ///
    /// The §3.2 completion rule reads `pending` once no work unit is
    /// outstanding, so an entry must be published no later than the step
    /// that could otherwise let [`JobState::is_complete`] observe zero:
    ///
    /// * before its buffer is sealed — the consumer's decrement must never
    ///   precede the increment (every seal publishes, so does [`flush`]);
    /// * before the work unit that buffered it is retired — a phase that
    ///   retires without flushing calls this first;
    /// * before the decrement that retires the response whose continuation
    ///   buffered it ([`finish_response`] publishes, then subtracts).
    ///
    /// [`JobState::is_complete`]: crate::phase::JobState::is_complete
    /// [`flush`]: WorkerComm::flush
    /// [`finish_response`]: WorkerComm::finish_response
    #[inline]
    pub fn publish_pending(&mut self) {
        if self.unpublished != 0 {
            self.pending.fetch_add(self.unpublished, Ordering::AcqRel);
            if let Some(t) = &self.term {
                t.add_inc(self.unpublished as u64);
            }
            self.unpublished = 0;
        }
    }

    fn seal_read(&mut self, dst: MachineId) {
        if let Some((payload, recs)) = self.read_payloads[dst as usize].take() {
            self.publish_pending();
            let side_id = self.slab.insert(recs);
            self.note_seal(payload.len(), Some(side_id));
            let _ = self.outbox.send(Envelope {
                src: self.machine,
                dst,
                kind: MsgKind::ReadReq,
                worker: self.worker,
                side_id,
                seq: 0,
                payload,
            });
        }
    }

    fn seal_mut(&mut self, dst: MachineId) {
        if let Some(payload) = self.mut_payloads[dst as usize].take() {
            self.publish_pending();
            self.note_seal(payload.len(), None);
            let _ = self.outbox.send(Envelope {
                src: self.machine,
                dst,
                kind: self.mut_kind,
                worker: self.worker,
                side_id: 0,
                seq: 0,
                payload,
            });
        }
    }

    /// Seals and sends every non-empty buffer ("when the worker thread has
    /// completed all tasks, the message is sent to the remote machine").
    /// Afterwards every entry this worker buffered is counted in `pending`,
    /// so `push_*` → `flush()` → retire is a complete phase protocol.
    pub fn flush(&mut self) {
        for dst in 0..self.read_payloads.len() as MachineId {
            self.seal_read(dst);
            self.seal_mut(dst);
        }
        debug_assert_eq!(
            self.unpublished, 0,
            "an unpublished entry outlived its buffer"
        );
        if self.telemetry.enabled() {
            let exhausted = self.pool.exhausted_events();
            if exhausted > self.last_exhausted {
                self.telemetry.trace(
                    self.worker as usize,
                    EventKind::PoolStall,
                    exhausted - self.last_exhausted,
                );
                self.last_exhausted = exhausted;
            }
        }
        self.publish_stats();
    }

    /// Publishes the batched entry counters to the machine statistics.
    pub fn publish_stats(&mut self) {
        if self.stat_reads > 0 {
            self.stats
                .read_entries
                .fetch_add(self.stat_reads, Ordering::Relaxed);
            self.stat_reads = 0;
        }
        if self.stat_writes > 0 {
            self.stats
                .write_entries
                .fetch_add(self.stat_writes, Ordering::Relaxed);
            self.stat_writes = 0;
        }
        if self.stat_ghosts > 0 {
            self.stats
                .ghost_entries
                .fetch_add(self.stat_ghosts, Ordering::Relaxed);
            self.stat_ghosts = 0;
        }
    }

    /// Acknowledges a sequenced response envelope on this worker's lane.
    fn send_ack(&self, peer: MachineId, seq: u64) {
        let mut payload = Vec::with_capacity(ACK_ENTRY_BYTES);
        push_ack_entry(&mut payload, 1 + self.worker as u32, seq);
        let _ = self.outbox.send(Envelope {
            src: self.machine,
            dst: peer,
            kind: MsgKind::Ack,
            worker: 0,
            side_id: 0,
            seq: 0,
            payload,
        });
        self.stats.acks_sent.fetch_add(1, Ordering::Relaxed);
    }

    /// Pops one response if available, pairing it with its side structure.
    /// Under the reliability protocol, sequenced responses are acked and
    /// duplicates suppressed here; a response whose side structure is not
    /// in flight (a duplicate that slipped in unsequenced) aborts the
    /// cluster with a descriptive protocol error rather than panicking.
    pub fn try_pop_response(&mut self) -> Option<Response> {
        loop {
            let env = self.resp_rx.try_recv().ok()?;
            debug_assert!(env.kind.is_response());
            if self.reliable && env.seq != 0 {
                // Always re-ack: the original ack may itself have been lost.
                self.send_ack(env.src, env.seq);
                if !self.resp_dedup[env.src as usize].accept(env.seq) {
                    self.stats.dup_suppressed.fetch_add(1, Ordering::Relaxed);
                    self.telemetry
                        .trace(self.worker as usize, EventKind::DupDrop, env.seq);
                    self.pool.release_on(env.payload, self.pool_shard);
                    continue;
                }
            }
            if self.telemetry.enabled() {
                if let Some(&sent) = self.sent_at.get(env.side_id as usize) {
                    if sent > 0 {
                        let rtt = self.telemetry.now_ns().saturating_sub(sent);
                        self.telemetry.record_read_rtt(rtt);
                    }
                }
            }
            let Some(recs) = self.slab.take(env.side_id) else {
                self.health.abort(JobError::Protocol(format!(
                    "machine {} worker {}: {:?} response names side structure {} which is \
                     not in flight (duplicated or stale response)",
                    self.machine, self.worker, env.kind, env.side_id
                )));
                self.pool.release_on(env.payload, self.pool_shard);
                return None;
            };
            return Some(Response { env, recs });
        }
    }

    /// Returns a processed response's resources to the pools and retires
    /// its `pending` entries. Must be called exactly once per popped
    /// [`Response`], after the continuations have run. Entries those
    /// continuations buffered are published first, so `pending` cannot
    /// touch zero between a response and the requests it chained.
    pub fn finish_response(&mut self, resp: Response) {
        self.publish_pending();
        let n = resp.recs.len() as i64;
        self.pending.fetch_sub(n, Ordering::AcqRel);
        if let Some(t) = &self.term {
            t.add_dec(n as u64);
        }
        let mut recs = resp.recs;
        recs.clear();
        self.rec_pool.push(recs);
        self.pool.release_on(resp.env.payload, self.pool_shard);
    }

    /// Abandons all in-flight communication after a cluster abort: unsealed
    /// request buffers are returned to the pool, outstanding side
    /// structures are dropped, and queued responses are drained. The
    /// cluster-global `pending` counter is deliberately left untouched —
    /// unpublished entries are dropped, not published: its accounting is
    /// unrecoverable once envelopes were lost, so the driver resets it when
    /// it reaps the abort.
    pub fn abort_in_flight(&mut self) {
        self.unpublished = 0;
        let mut failed = 0u64;
        for slot in self.read_payloads.iter_mut() {
            if let Some((buf, recs)) = slot.take() {
                failed += recs.len() as u64;
                self.pool.release_on(buf, self.pool_shard);
            }
        }
        for slot in self.mut_payloads.iter_mut() {
            if let Some(buf) = slot.take() {
                failed += mut_entry_count(&buf) as u64;
                self.pool.release_on(buf, self.pool_shard);
            }
        }
        failed += self.slab.abandon() as u64;
        while let Ok(env) = self.resp_rx.try_recv() {
            self.pool.release_on(env.payload, self.pool_shard);
        }
        if failed > 0 {
            self.stats
                .failed_entries
                .fetch_add(failed, Ordering::Relaxed);
            self.telemetry
                .trace(self.worker as usize, EventKind::AbortSweep, failed);
        }
        self.publish_stats();
    }

    /// Number of side structures awaiting responses.
    pub fn in_flight_sides(&self) -> usize {
        self.slab.in_flight()
    }

    /// True if all request buffers are empty (everything sealed).
    pub fn is_flushed(&self) -> bool {
        self.read_payloads.iter().all(|p| p.is_none())
            && self.mut_payloads.iter().all(|p| p.is_none())
    }

    /// The cluster-wide pending-entry counter (for completion checks).
    /// Publishes first, so a check made through this worker counts the
    /// entries it has buffered.
    pub fn pending(&mut self) -> &Arc<AtomicI64> {
        self.publish_pending();
        &self.pending
    }

    /// The machine's statistics block.
    pub fn stats(&self) -> &Arc<MachineStats> {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;

    fn make_comm(buffer_bytes: usize) -> (WorkerComm, Receiver<Envelope>, Sender<Envelope>) {
        let (out_tx, out_rx) = unbounded();
        let (resp_tx, resp_rx) = unbounded();
        let comm = WorkerComm::new(
            0,
            0,
            2,
            CommTuning::fixed(buffer_bytes),
            resp_rx,
            out_tx,
            Arc::new(BufferPool::new(8, buffer_bytes)),
            Arc::new(AtomicI64::new(0)),
            Telemetry::detached(2, true),
            Arc::new(ClusterHealth::new(2)),
            false,
        );
        (comm, out_rx, resp_tx)
    }

    /// A worker of a `machines`-machine cluster, with the shared counter
    /// and pool it was built around exposed.
    fn make_comm_shared(
        machines: usize,
        buffer_bytes: usize,
    ) -> (
        WorkerComm,
        Receiver<Envelope>,
        Arc<AtomicI64>,
        Arc<BufferPool>,
    ) {
        let (out_tx, out_rx) = unbounded();
        let (_resp_tx, resp_rx) = unbounded();
        let pending = Arc::new(AtomicI64::new(0));
        let pool = Arc::new(BufferPool::new(8, buffer_bytes));
        let comm = WorkerComm::new(
            0,
            0,
            machines,
            CommTuning::fixed(buffer_bytes),
            resp_rx,
            out_tx,
            pool.clone(),
            pending.clone(),
            Telemetry::detached(machines, true),
            Arc::new(ClusterHealth::new(machines)),
            false,
        );
        (comm, out_rx, pending, pool)
    }

    #[test]
    fn reads_buffer_until_flush() {
        let (mut comm, out, _resp) = make_comm(1024);
        comm.push_read(1, PropId(0), 5, SideRec { node: 2, aux: 0 });
        comm.push_read(1, PropId(0), 6, SideRec { node: 3, aux: 0 });
        assert!(out.try_recv().is_err(), "nothing sent before flush");
        assert_eq!(comm.pending().load(Ordering::SeqCst), 2);
        comm.flush();
        let env = out.try_recv().unwrap();
        assert_eq!(env.kind, MsgKind::ReadReq);
        assert_eq!(crate::message::read_entry_count(&env.payload), 2);
        assert_eq!(comm.in_flight_sides(), 1);
        assert!(comm.is_flushed());
    }

    #[test]
    fn reads_auto_seal_at_capacity() {
        // Buffer fits exactly 2 read entries.
        let (mut comm, out, _resp) = make_comm(2 * READ_ENTRY_BYTES);
        for i in 0..5u32 {
            comm.push_read(1, PropId(0), i, SideRec { node: i, aux: 0 });
        }
        // 5 entries → two sealed envelopes of 2, one buffered entry left.
        assert_eq!(out.try_iter().count(), 2);
        assert!(!comm.is_flushed());
        comm.flush();
        assert_eq!(out.try_iter().count(), 1);
    }

    #[test]
    fn response_roundtrip_decrements_pending() {
        let (mut comm, out, resp_tx) = make_comm(1024);
        comm.push_read(1, PropId(3), 9, SideRec { node: 7, aux: 42 });
        comm.flush();
        let req = out.try_recv().unwrap();
        // Fake the remote copier's answer.
        let mut payload = Vec::new();
        crate::message::push_resp_entry(&mut payload, 0xDEAD);
        resp_tx
            .send(Envelope {
                src: 1,
                dst: 0,
                kind: MsgKind::ReadResp,
                worker: req.worker,
                side_id: req.side_id,
                seq: 0,
                payload,
            })
            .unwrap();
        let r = comm.try_pop_response().unwrap();
        assert_eq!(r.recs, vec![SideRec { node: 7, aux: 42 }]);
        assert_eq!(crate::message::resp_entry(&r.env.payload, 0), 0xDEAD);
        comm.finish_response(r);
        assert_eq!(comm.pending().load(Ordering::SeqCst), 0);
        assert_eq!(comm.in_flight_sides(), 0);
    }

    #[test]
    fn mutations_roundtrip() {
        let (mut comm, out, _resp) = make_comm(1024);
        comm.push_mut(1, PropId(2), ReduceOp::Sum, 11, 99);
        comm.flush();
        let env = out.try_recv().unwrap();
        assert_eq!(env.kind, MsgKind::Write);
        let (p, op, off, bits) = crate::message::mut_entry(&env.payload, 0);
        assert_eq!((p, op, off, bits), (2, ReduceOp::Sum, 11, 99));
        // Writes stay pending until the copier applies them.
        assert_eq!(comm.pending().load(Ordering::SeqCst), 1);
    }

    #[test]
    fn mut_kind_switches_for_ghost_phases() {
        let (mut comm, out, _resp) = make_comm(1024);
        comm.set_mut_kind(MsgKind::GhostSync);
        comm.push_mut(1, PropId(0), ReduceOp::Assign, 0, 7);
        comm.flush();
        assert_eq!(out.try_recv().unwrap().kind, MsgKind::GhostSync);
        comm.set_mut_kind(MsgKind::Write);
    }

    /// Repeated reads of one vertex are each a wire entry of their own,
    /// and each record continues on its own entry's value.
    #[test]
    fn duplicate_reads_keep_their_own_wire_entries() {
        let (mut comm, out, resp_tx) = make_comm(1024);
        for (i, off) in [5u32, 5, 6, 5].into_iter().enumerate() {
            let rec = SideRec {
                node: 10 + i as u32,
                aux: i as u64,
            };
            comm.push_read(1, PropId(0), off, rec);
        }
        comm.flush();
        let req = out.try_recv().unwrap();
        assert_eq!(crate::message::read_entry_count(&req.payload), 4);
        assert_eq!(comm.stats().read_entries.load(Ordering::Relaxed), 4);
        // The copier answers entry by entry: offset × 100.
        let mut payload = Vec::new();
        for i in 0..4 {
            let (_, off) = crate::message::read_entry(&req.payload, i);
            crate::message::push_resp_entry(&mut payload, off as u64 * 100);
        }
        resp_tx
            .send(Envelope {
                src: 1,
                dst: 0,
                kind: MsgKind::ReadResp,
                worker: req.worker,
                side_id: req.side_id,
                seq: 0,
                payload,
            })
            .unwrap();
        let r = comm.try_pop_response().unwrap();
        let values: Vec<(u64, u64)> = r.values().map(|(rec, bits)| (rec.aux, bits)).collect();
        assert_eq!(values, vec![(0, 500), (1, 500), (2, 600), (3, 500)]);
        comm.finish_response(r);
        assert_eq!(comm.pending().load(Ordering::SeqCst), 0);
    }

    #[test]
    fn pending_is_published_at_seal_not_per_entry() {
        // Room for 4 read entries or 2 mutation entries.
        let (mut comm, out, pending, _pool) = make_comm_shared(2, 4 * READ_ENTRY_BYTES);
        for i in 0..3 {
            comm.push_read(1, PropId(0), i, SideRec { node: 0, aux: 0 });
        }
        assert_eq!(
            pending.load(Ordering::SeqCst),
            0,
            "nothing shared per entry"
        );
        comm.push_read(1, PropId(0), 3, SideRec { node: 0, aux: 0 });
        assert_eq!(out.try_iter().count(), 1, "sealed at capacity");
        assert_eq!(pending.load(Ordering::SeqCst), 4, "counted before it left");
        comm.push_mut(1, PropId(0), ReduceOp::Sum, 2, 1);
        assert_eq!(pending.load(Ordering::SeqCst), 4);
        comm.publish_pending();
        assert_eq!(pending.load(Ordering::SeqCst), 5, "the pre-retire publish");
        comm.flush();
        assert_eq!(pending.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn side_slab_recycles_ids() {
        let (mut comm, out, resp_tx) = make_comm(READ_ENTRY_BYTES);
        for round in 0..3 {
            comm.push_read(
                1,
                PropId(0),
                round,
                SideRec {
                    node: round,
                    aux: 0,
                },
            );
            let req = out.try_recv().unwrap();
            assert_eq!(req.side_id, 0, "slab should recycle slot 0");
            let mut payload = Vec::new();
            crate::message::push_resp_entry(&mut payload, round as u64);
            resp_tx
                .send(Envelope {
                    src: 1,
                    dst: 0,
                    kind: MsgKind::ReadResp,
                    worker: 0,
                    side_id: req.side_id,
                    seq: 0,
                    payload,
                })
                .unwrap();
            let r = comm.try_pop_response().unwrap();
            comm.finish_response(r);
        }
    }

    fn make_reliable_comm(
        buffer_bytes: usize,
    ) -> (
        WorkerComm,
        Receiver<Envelope>,
        Sender<Envelope>,
        Arc<ClusterHealth>,
    ) {
        let (out_tx, out_rx) = unbounded();
        let (resp_tx, resp_rx) = unbounded();
        let health = Arc::new(ClusterHealth::new(2));
        let comm = WorkerComm::new(
            0,
            0,
            2,
            CommTuning::fixed(buffer_bytes),
            resp_rx,
            out_tx,
            Arc::new(BufferPool::new(8, buffer_bytes)),
            Arc::new(AtomicI64::new(0)),
            Telemetry::detached(2, true),
            health.clone(),
            true,
        );
        (comm, out_rx, resp_tx, health)
    }

    #[test]
    fn duplicate_response_suppressed_and_acked() {
        let (mut comm, out, resp_tx, health) = make_reliable_comm(1024);
        comm.push_read(1, PropId(0), 3, SideRec { node: 1, aux: 0 });
        comm.flush();
        let req = out.try_recv().unwrap();
        let mut payload = Vec::new();
        crate::message::push_resp_entry(&mut payload, 7);
        let resp = Envelope {
            src: 1,
            dst: 0,
            kind: MsgKind::ReadResp,
            worker: req.worker,
            side_id: req.side_id,
            seq: 9,
            payload,
        };
        resp_tx.send(resp.clone()).unwrap();
        resp_tx.send(resp).unwrap(); // the wire duplicated it
        let r = comm.try_pop_response().expect("first delivery accepted");
        comm.finish_response(r);
        assert!(
            comm.try_pop_response().is_none(),
            "replay suppressed without touching the slab"
        );
        assert!(!health.is_aborted(), "a suppressed dup is not an error");
        assert_eq!(comm.stats().dup_suppressed.load(Ordering::Relaxed), 1);
        // Both deliveries were acked (the first ack may have been lost).
        let acks: Vec<_> = out.try_iter().filter(|e| e.kind == MsgKind::Ack).collect();
        assert_eq!(acks.len(), 2);
        let (lane, seq) = crate::message::ack_entries(&acks[0].payload)
            .next()
            .unwrap();
        assert_eq!((lane, seq), (1, 9), "worker 0 acks on lane 1");
    }

    #[test]
    fn unknown_side_structure_aborts_instead_of_panicking() {
        let (mut comm, _out, resp_tx, health) = make_reliable_comm(1024);
        resp_tx
            .send(Envelope {
                src: 1,
                dst: 0,
                kind: MsgKind::ReadResp,
                worker: 0,
                side_id: 42,
                seq: 0,
                payload: Vec::new(),
            })
            .unwrap();
        assert!(comm.try_pop_response().is_none());
        assert!(health.is_aborted());
        match health.error() {
            Some(JobError::Protocol(msg)) => {
                assert!(msg.contains("side structure 42"), "got: {msg}")
            }
            other => panic!("expected protocol error, got {other:?}"),
        }
    }

    #[test]
    fn abort_drops_unpublished_counts_and_conserves_the_pool() {
        let (mut comm, out, pending, pool) = make_comm_shared(2, 1024);
        // One sealed request (published, its buffer now owned by the
        // "wire"), then unsealed, unpublished entries of every kind.
        comm.push_read(1, PropId(0), 0, SideRec { node: 0, aux: 0 });
        comm.flush();
        let sent = out.try_recv().unwrap();
        assert_eq!(pending.load(Ordering::SeqCst), 1);
        comm.push_read(1, PropId(0), 1, SideRec { node: 1, aux: 0 });
        comm.push_mut(1, PropId(0), ReduceOp::Sum, 2, 5);
        assert_eq!(pool.outstanding(), 3);
        comm.abort_in_flight();
        assert_eq!(
            pending.load(Ordering::SeqCst),
            1,
            "unpublished entries are dropped, never published"
        );
        assert_eq!(comm.pending().load(Ordering::SeqCst), 1);
        assert!(comm.is_flushed());
        // Every unsealed buffer went back; only the sent one is out.
        assert_eq!(pool.outstanding(), 1);
        pool.release(sent.payload);
        assert_eq!(pool.outstanding(), 0);
        // A later phase starts from a clean count.
        comm.push_mut(1, PropId(0), ReduceOp::Sum, 3, 1);
        comm.flush();
        assert_eq!(pending.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn abort_sweep_releases_in_flight_state() {
        let (mut comm, out, _resp, _health) = make_reliable_comm(1024);
        // One unsealed read buffer + one sealed (slab-held) request.
        comm.push_read(1, PropId(0), 0, SideRec { node: 0, aux: 0 });
        comm.flush();
        let _ = out.try_recv().unwrap();
        comm.push_read(1, PropId(0), 1, SideRec { node: 1, aux: 0 });
        comm.push_mut(1, PropId(0), ReduceOp::Sum, 2, 5);
        assert_eq!(comm.in_flight_sides(), 1);
        assert!(!comm.is_flushed());
        comm.abort_in_flight();
        assert!(comm.is_flushed(), "unsealed buffers were abandoned");
        assert_eq!(comm.in_flight_sides(), 0, "side slab was abandoned");
        assert_eq!(comm.stats().failed_entries.load(Ordering::Relaxed), 3);
    }
}
