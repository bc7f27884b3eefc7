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

use crate::buffer::BufferPool;
use crate::health::{ClusterHealth, JobError};
use crate::ids::MachineId;
use crate::message::{
    mut_entry_count, push_ack_entry, push_mut_entry, push_read_entry, push_rmi_entry,
    rmi_resp_entries, Envelope, MsgKind, RmiRespEntries, ACK_ENTRY_BYTES, MUT_ENTRY_BYTES,
    READ_ENTRY_BYTES, RESP_ENTRY_BYTES,
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
/// (`buffer_bytes`, `read_combining`, `pool_shards`).
///
/// [`Config`]: crate::config::Config
#[derive(Clone)]
pub struct CommTuning {
    /// Bytes per message buffer: a buffer seals when one more entry would
    /// not fit.
    pub buffer_bytes: usize,
    /// Combine duplicate in-flight reads of the same `(property, vertex)`
    /// into one wire entry.
    pub read_combining: bool,
    /// Buffer-pool shard hint for this worker (its worker index).
    pub pool_shard: usize,
}

impl CommTuning {
    /// Combining on, shard 0 — mirrors the production defaults for tests
    /// and detached endpoints.
    pub fn fixed(buffer_bytes: usize) -> Self {
        CommTuning {
            buffer_bytes,
            read_combining: true,
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

/// One in-flight side structure: the continuation records logged while the
/// request buffer filled, plus (under read combining) the wire entry index
/// each record's value lives at.
#[derive(Debug, Default)]
struct SideEntry {
    recs: Vec<SideRec>,
    /// Wire entry index per record. Empty means the identity mapping
    /// (record `i` ↔ entry `i`) — the only shape produced with combining
    /// off, so the common path carries no per-record cost.
    entry_idx: Vec<u32>,
}

/// Slab of in-flight side structures, indexed by the `side_id` echoed
/// through request/response headers.
#[derive(Debug, Default)]
struct SideSlab {
    slots: Vec<Option<SideEntry>>,
    free: Vec<u32>,
}

impl SideSlab {
    fn insert(&mut self, entry: SideEntry) -> u32 {
        match self.free.pop() {
            Some(id) => {
                debug_assert!(self.slots[id as usize].is_none());
                self.slots[id as usize] = Some(entry);
                id
            }
            None => {
                self.slots.push(Some(entry));
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Retires slot `id`, returning its records — or `None` when the slot
    /// is not in flight (out-of-range, never issued, or already consumed
    /// by an earlier response: the duplicated-response symptom).
    fn take(&mut self, id: u32) -> Option<SideEntry> {
        let entry = self.slots.get_mut(id as usize)?.take()?;
        self.free.push(id);
        Some(entry)
    }

    /// Abandons every in-flight slot, returning the total record count.
    fn abandon(&mut self) -> usize {
        let mut n = 0;
        for (id, slot) in self.slots.iter_mut().enumerate() {
            if let Some(entry) = slot.take() {
                n += entry.recs.len();
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
    /// The envelope as received (`ReadResp` or `RmiResp`).
    pub env: Envelope,
    /// The continuation records logged when the requests were buffered,
    /// in request order.
    pub recs: Vec<SideRec>,
    /// Wire entry index per record (empty = identity; see read combining).
    entry_idx: Vec<u32>,
}

impl Response {
    /// The wire entry holding record `i`'s value. Identity unless read
    /// combining folded several records onto one request entry.
    #[inline]
    pub fn entry_index(&self, i: usize) -> usize {
        match self.entry_idx.get(i) {
            Some(&e) => e as usize,
            None => i,
        }
    }

    /// The read-response value for record `i` (a `ReadResp` payload).
    #[inline]
    pub fn read_value(&self, i: usize) -> u64 {
        crate::message::resp_entry(&self.env.payload, self.entry_index(i))
    }

    /// Every continuation record with the value it continues on, in
    /// request order — the one fan-out both drain loops run. A read
    /// response yields the record's wire value; an RMI response yields the
    /// first 8 bytes of the record's reply (zero-padded).
    pub fn values(&self) -> ResponseValues<'_> {
        let payload = &self.env.payload[..];
        ResponseValues(match self.env.kind {
            MsgKind::ReadResp if self.entry_idx.is_empty() => {
                // `zip` would silently drop the continuations of a short
                // response; fail as loudly as an indexed read would.
                assert!(
                    payload.len() >= self.recs.len() * RESP_ENTRY_BYTES,
                    "read response carries fewer values than requests"
                );
                Values::Direct(self.recs.iter().zip(payload.chunks_exact(RESP_ENTRY_BYTES)))
            }
            MsgKind::ReadResp => Values::Combined {
                recs: self.recs.iter().zip(self.entry_idx.iter()),
                payload,
            },
            MsgKind::RmiResp => Values::Rmi(self.recs.iter().zip(rmi_resp_entries(payload))),
            kind => unreachable!("worker queues carry only responses, got {kind:?}"),
        })
    }
}

/// Iterator behind [`Response::values`].
pub struct ResponseValues<'a>(Values<'a>);

/// The shape of a response — one value per record, values shared through
/// the combining index, or RMI replies — decided once per response, not
/// per record.
enum Values<'a> {
    /// Record `i` continues on wire entry `i`.
    Direct(std::iter::Zip<std::slice::Iter<'a, SideRec>, std::slice::ChunksExact<'a, u8>>),
    /// Record `i` continues on the wire entry its combining index names.
    Combined {
        recs: std::iter::Zip<std::slice::Iter<'a, SideRec>, std::slice::Iter<'a, u32>>,
        payload: &'a [u8],
    },
    /// Record `i` continues on RMI reply `i`.
    Rmi(std::iter::Zip<std::slice::Iter<'a, SideRec>, RmiRespEntries<'a>>),
}

impl Iterator for ResponseValues<'_> {
    type Item = (SideRec, u64);

    #[inline]
    fn next(&mut self) -> Option<(SideRec, u64)> {
        match &mut self.0 {
            Values::Direct(it) => {
                let (rec, bytes) = it.next()?;
                let bytes = bytes.try_into().expect("chunks_exact yields 8 bytes");
                Some((*rec, u64::from_le_bytes(bytes)))
            }
            Values::Combined { recs, payload } => {
                let (rec, &entry) = recs.next()?;
                Some((*rec, crate::message::resp_entry(payload, entry as usize)))
            }
            Values::Rmi(it) => {
                let (rec, bytes) = it.next()?;
                let mut first = [0u8; 8];
                let n = bytes.len().min(8);
                first[..n].copy_from_slice(&bytes[..n]);
                Some((*rec, u64::from_le_bytes(first)))
            }
        }
    }
}

/// An open per-destination read buffer: wire payload, the continuation
/// records awaiting its responses, and the wire-entry index each record
/// fans out from (empty = identity mapping, i.e. no combining hits).
type ReadBuffer = (Vec<u8>, Vec<SideRec>, Vec<u32>);

/// Exact combining table over one destination's *unsealed* read buffer:
/// `(property, vertex) → wire entry index`.
///
/// Open addressing with linear probing on a multiplicative hash. A slot is
/// live only while its stamp equals the table's generation, so
/// [`CombineTable::reset`] empties the table in O(1) at every seal. Nothing
/// is ever evicted: the table doubles before it is half full, and a buffer
/// holds at most `buffer_bytes / READ_ENTRY_BYTES` distinct keys, which
/// bounds its size. Storage is allocated on the first insert, so a
/// destination that is never read from costs nothing.
#[derive(Debug)]
struct CombineTable {
    /// Power-of-two length (or empty before the first insert).
    slots: Vec<CombineSlot>,
    /// Current generation; never 0, the stamp of a never-written slot.
    generation: u32,
    /// Keys inserted in the current generation.
    live: usize,
}

#[derive(Clone, Copy, Debug, Default)]
struct CombineSlot {
    key: u64,
    entry: u32,
    stamp: u32,
}

impl CombineTable {
    const MIN_SLOTS: usize = 64;

    fn new() -> Self {
        CombineTable {
            slots: Vec::new(),
            generation: 1,
            live: 0,
        }
    }

    /// Home slot of `key` in a table of `len` (a power of two ≥ 2) slots:
    /// the top bits of a Fibonacci-hash product.
    #[inline]
    fn home(key: u64, len: usize) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - len.trailing_zeros())) as usize
    }

    /// The wire entry already carrying `key` in this generation; otherwise
    /// records `entry` for it and returns `None`.
    #[inline]
    fn get_or_insert(&mut self, key: u64, entry: u32) -> Option<u32> {
        if self.live * 2 >= self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = Self::home(key, self.slots.len());
        loop {
            let slot = &mut self.slots[i];
            if slot.stamp != self.generation {
                *slot = CombineSlot {
                    key,
                    entry,
                    stamp: self.generation,
                };
                self.live += 1;
                return None;
            }
            if slot.key == key {
                return Some(slot.entry);
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the table, re-inserting the current generation's keys.
    #[cold]
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(Self::MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![CombineSlot::default(); len]);
        // A quarter full at most after the move, so no nested growth.
        self.live = 0;
        let generation = self.generation;
        for slot in old.iter().filter(|s| s.stamp == generation) {
            self.get_or_insert(slot.key, slot.entry);
        }
    }

    /// Forgets every key. O(1) except once per 2³² resets, when the stamps
    /// are wiped so a slot written 2³² generations ago cannot read as live.
    #[inline]
    fn reset(&mut self) {
        self.live = 0;
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.slots.iter_mut().for_each(|s| s.stamp = 0);
            self.generation = 1;
        }
    }
}

/// Per-worker communication endpoint.
pub struct WorkerComm {
    machine: MachineId,
    worker: u16,
    buffer_bytes: usize,
    /// Combine duplicate in-flight reads (see [`CommTuning`]).
    read_combining: bool,
    /// Buffer-pool shard this worker recycles through.
    pool_shard: usize,
    read_payloads: Vec<Option<ReadBuffer>>,
    /// Per-destination combining table over the *current unsealed* read
    /// buffer. Reset at seal, so combined records always share one request
    /// message and therefore see the same copier-read instant
    /// (bit-identical to combining off).
    combine: Vec<CombineTable>,
    mut_payloads: Vec<Option<Vec<u8>>>,
    mut_kind: MsgKind,
    rmi_payloads: Vec<Option<(Vec<u8>, Vec<SideRec>)>>,
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
    idx_pool: Vec<Vec<u32>>,
    // Entry statistics are batched locally and published at flush time so
    // the per-edge hot path touches no shared counters.
    stat_reads: u64,
    stat_writes: u64,
    stat_ghosts: u64,
    stat_rmis: u64,
    stat_combined: u64,
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
            read_combining: tuning.read_combining,
            pool_shard: tuning.pool_shard,
            read_payloads: (0..num_machines).map(|_| None).collect(),
            combine: (0..num_machines).map(|_| CombineTable::new()).collect(),
            mut_payloads: (0..num_machines).map(|_| None).collect(),
            mut_kind: MsgKind::Write,
            rmi_payloads: (0..num_machines).map(|_| None).collect(),
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
            idx_pool: Vec::new(),
            stat_reads: 0,
            stat_writes: 0,
            stat_ghosts: 0,
            stat_rmis: 0,
            stat_combined: 0,
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

    fn take_recs(&mut self) -> Vec<SideRec> {
        self.rec_pool.pop().unwrap_or_default()
    }

    fn take_idx(&mut self) -> Vec<u32> {
        self.idx_pool.pop().unwrap_or_default()
    }

    /// Buffers a remote read request to `dst` and logs the continuation
    /// record. Under read combining, a second read of the same
    /// `(property, vertex)` while the buffer is unsealed piggybacks on the
    /// existing wire entry instead of adding one; the response value fans
    /// out to every logged record. Seals automatically when the buffer is
    /// full.
    pub fn push_read(&mut self, dst: MachineId, prop: PropId, offset: u32, rec: SideRec) {
        self.unpublished += 1;
        let slot = dst as usize;
        if self.read_payloads[slot].is_none() {
            let buf = self.pool.acquire_or_alloc_on(self.pool_shard);
            let recs = self.take_recs();
            let idx = self.take_idx();
            self.read_payloads[slot] = Some((buf, recs, idx));
        }
        {
            let (buf, recs, idx) = self.read_payloads[slot].as_mut().unwrap();
            if self.read_combining {
                let entry = (buf.len() / READ_ENTRY_BYTES) as u32;
                let key = ((prop.0 as u64) << 32) | offset as u64;
                if let Some(hit) = self.combine[slot].get_or_insert(key, entry) {
                    // The value is already on the wire; no new entry, no
                    // capacity check needed.
                    recs.push(rec);
                    idx.push(hit);
                    self.stat_combined += 1;
                    return;
                }
                idx.push(entry);
            }
            push_read_entry(buf, prop.0, offset);
            recs.push(rec);
            self.stat_reads += 1;
        }
        if self.read_payloads[slot].as_ref().unwrap().0.len() + READ_ENTRY_BYTES > self.buffer_bytes
        {
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

    /// Buffers a remote method invocation; the response will surface as an
    /// `RmiResp` [`Response`] whose records carry `rec`.
    pub fn push_rmi(&mut self, dst: MachineId, fn_id: u16, args: &[u8], rec: SideRec) {
        self.unpublished += 1;
        self.stat_rmis += 1;
        let slot = dst as usize;
        if self.rmi_payloads[slot].is_none() {
            let buf = self.pool.acquire_or_alloc_on(self.pool_shard);
            let recs = self.take_recs();
            self.rmi_payloads[slot] = Some((buf, recs));
        }
        {
            let (buf, recs) = self.rmi_payloads[slot].as_mut().unwrap();
            push_rmi_entry(buf, fn_id, args);
            recs.push(rec);
        }
        if self.rmi_payloads[slot].as_ref().unwrap().0.len() + 4 + args.len() > self.buffer_bytes {
            self.seal_rmi(dst);
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
        if let Some((payload, recs, entry_idx)) = self.read_payloads[dst as usize].take() {
            if self.read_combining {
                self.combine[dst as usize].reset();
            }
            self.publish_pending();
            let side_id = self.slab.insert(SideEntry { recs, entry_idx });
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

    fn seal_rmi(&mut self, dst: MachineId) {
        if let Some((payload, recs)) = self.rmi_payloads[dst as usize].take() {
            self.publish_pending();
            let side_id = self.slab.insert(SideEntry {
                recs,
                entry_idx: Vec::new(),
            });
            self.note_seal(payload.len(), Some(side_id));
            let _ = self.outbox.send(Envelope {
                src: self.machine,
                dst,
                kind: MsgKind::Rmi,
                worker: self.worker,
                side_id,
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
            self.seal_rmi(dst);
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
        if self.stat_rmis > 0 {
            self.stats
                .rmi_entries
                .fetch_add(self.stat_rmis, Ordering::Relaxed);
            self.stat_rmis = 0;
        }
        if self.stat_combined > 0 {
            self.stats
                .combined_read_hits
                .fetch_add(self.stat_combined, Ordering::Relaxed);
            self.stat_combined = 0;
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
            let Some(entry) = self.slab.take(env.side_id) else {
                self.health.abort(JobError::Protocol(format!(
                    "machine {} worker {}: {:?} response names side structure {} which is \
                     not in flight (duplicated or stale response)",
                    self.machine, self.worker, env.kind, env.side_id
                )));
                self.pool.release_on(env.payload, self.pool_shard);
                return None;
            };
            return Some(Response {
                env,
                recs: entry.recs,
                entry_idx: entry.entry_idx,
            });
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
        let mut idx = resp.entry_idx;
        idx.clear();
        self.idx_pool.push(idx);
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
            if let Some((buf, recs, _idx)) = slot.take() {
                failed += recs.len() as u64;
                self.pool.release_on(buf, self.pool_shard);
            }
        }
        for table in self.combine.iter_mut() {
            table.reset();
        }
        for slot in self.mut_payloads.iter_mut() {
            if let Some(buf) = slot.take() {
                failed += mut_entry_count(&buf) as u64;
                self.pool.release_on(buf, self.pool_shard);
            }
        }
        for slot in self.rmi_payloads.iter_mut() {
            if let Some((buf, recs)) = slot.take() {
                failed += recs.len() as u64;
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
            && self.rmi_payloads.iter().all(|p| p.is_none())
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

    fn make_comm_tuned(tuning: CommTuning) -> (WorkerComm, Receiver<Envelope>, Sender<Envelope>) {
        let (out_tx, out_rx) = unbounded();
        let (resp_tx, resp_rx) = unbounded();
        let buffer_bytes = tuning.buffer_bytes;
        let comm = WorkerComm::new(
            0,
            0,
            2,
            tuning,
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

    fn make_comm(buffer_bytes: usize) -> (WorkerComm, Receiver<Envelope>, Sender<Envelope>) {
        make_comm_tuned(CommTuning::fixed(buffer_bytes))
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

    #[test]
    fn rmi_roundtrip() {
        let (mut comm, out, resp_tx) = make_comm(1024);
        comm.push_rmi(1, 4, b"args", SideRec { node: 0, aux: 1 });
        comm.flush();
        let req = out.try_recv().unwrap();
        assert_eq!(req.kind, MsgKind::Rmi);
        let entries: Vec<_> = crate::message::rmi_entries(&req.payload).collect();
        assert_eq!(entries, vec![(4u16, &b"args"[..])]);
        let mut payload = Vec::new();
        crate::message::push_rmi_resp_entry(&mut payload, b"ok");
        resp_tx
            .send(Envelope {
                src: 1,
                dst: 0,
                kind: MsgKind::RmiResp,
                worker: req.worker,
                side_id: req.side_id,
                seq: 0,
                payload,
            })
            .unwrap();
        let r = comm.try_pop_response().unwrap();
        assert_eq!(r.env.kind, MsgKind::RmiResp);
        assert_eq!(r.recs[0].aux, 1);
        comm.finish_response(r);
        assert_eq!(comm.pending().load(Ordering::SeqCst), 0);
    }

    #[test]
    fn combining_dedups_in_flight_reads_and_fans_out() {
        let (mut comm, out, resp_tx) = make_comm(1024);
        // Three reads of vertex 5, one of vertex 6, one more of vertex 5:
        // only two wire entries should go out.
        comm.push_read(1, PropId(0), 5, SideRec { node: 10, aux: 0 });
        comm.push_read(1, PropId(0), 5, SideRec { node: 11, aux: 1 });
        comm.push_read(1, PropId(0), 6, SideRec { node: 12, aux: 2 });
        comm.push_read(1, PropId(0), 5, SideRec { node: 13, aux: 3 });
        assert_eq!(comm.pending().load(Ordering::SeqCst), 4);
        comm.flush();
        let req = out.try_recv().unwrap();
        assert_eq!(
            crate::message::read_entry_count(&req.payload),
            2,
            "duplicates share one wire entry"
        );
        assert_eq!(comm.stats().combined_read_hits.load(Ordering::Relaxed), 2);
        // Copier answers the two entries in wire order: v5 → 500, v6 → 600.
        let mut payload = Vec::new();
        crate::message::push_resp_entry(&mut payload, 500);
        crate::message::push_resp_entry(&mut payload, 600);
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
        assert_eq!(r.recs.len(), 4, "every continuation record survives");
        let values: Vec<u64> = (0..r.recs.len()).map(|i| r.read_value(i)).collect();
        assert_eq!(values, vec![500, 500, 600, 500]);
        comm.finish_response(r);
        assert_eq!(comm.pending().load(Ordering::SeqCst), 0);
    }

    #[test]
    fn combining_table_clears_at_seal() {
        // Buffer fits exactly 2 read entries; a third distinct read seals.
        let (mut comm, out, _resp) = make_comm(2 * READ_ENTRY_BYTES);
        comm.push_read(1, PropId(0), 5, SideRec { node: 0, aux: 0 });
        comm.push_read(1, PropId(0), 6, SideRec { node: 1, aux: 0 });
        // Sealed at capacity. The same vertex again must be a fresh wire
        // entry (its response will come from a later copier read).
        comm.push_read(1, PropId(0), 5, SideRec { node: 2, aux: 0 });
        comm.flush();
        let envs: Vec<_> = out.try_iter().collect();
        assert_eq!(envs.len(), 2);
        assert_eq!(crate::message::read_entry_count(&envs[0].payload), 2);
        assert_eq!(crate::message::read_entry_count(&envs[1].payload), 1);
        assert_eq!(comm.stats().combined_read_hits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn combining_disabled_keeps_duplicate_entries() {
        let mut tuning = CommTuning::fixed(1024);
        tuning.read_combining = false;
        let (mut comm, out, _resp) = make_comm_tuned(tuning);
        comm.push_read(1, PropId(0), 5, SideRec { node: 0, aux: 0 });
        comm.push_read(1, PropId(0), 5, SideRec { node: 1, aux: 0 });
        comm.flush();
        let req = out.try_recv().unwrap();
        assert_eq!(crate::message::read_entry_count(&req.payload), 2);
        assert_eq!(comm.stats().combined_read_hits.load(Ordering::Relaxed), 0);
    }

    /// Two distinct offsets of property 0 whose keys share a home slot in a
    /// minimum-size table.
    fn colliding_offsets() -> (u32, u32) {
        let home = |off: u32| CombineTable::home(off as u64, CombineTable::MIN_SLOTS);
        let b = (1..).find(|&b| home(b) == home(0)).unwrap();
        (0, b)
    }

    #[test]
    fn combining_colliding_keys_keep_distinct_wire_entries() {
        let (a, b) = colliding_offsets();
        let (mut comm, out, resp_tx) = make_comm(1024);
        for (i, off) in [a, b, a, b].into_iter().enumerate() {
            comm.push_read(
                1,
                PropId(0),
                off,
                SideRec {
                    node: 0,
                    aux: i as u64,
                },
            );
        }
        comm.flush();
        let req = out.try_recv().unwrap();
        assert_eq!(crate::message::read_entry_count(&req.payload), 2);
        assert_eq!(crate::message::read_entry(&req.payload, 0), (0, a));
        assert_eq!(crate::message::read_entry(&req.payload, 1), (0, b));
        let mut payload = Vec::new();
        crate::message::push_resp_entry(&mut payload, 100);
        crate::message::push_resp_entry(&mut payload, 200);
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
        let values: Vec<u64> = r.values().map(|(_, bits)| bits).collect();
        assert_eq!(values, vec![100, 200, 100, 200]);
        comm.finish_response(r);
    }

    #[test]
    fn combine_table_grows_without_evicting() {
        let mut t = CombineTable::new();
        assert!(t.slots.is_empty(), "no storage before the first insert");
        for k in 0..1000u64 {
            assert_eq!(t.get_or_insert(k << 7, k as u32), None);
        }
        for k in 0..1000u64 {
            assert_eq!(t.get_or_insert(k << 7, u32::MAX), Some(k as u32));
        }
        assert!(t.slots.len() > 2 * 1000 - 1 && t.slots.len().is_power_of_two());
        t.reset();
        assert_eq!(t.get_or_insert(0, 5), None, "reset forgets every key");
    }

    #[test]
    fn combine_table_generation_wrap_cannot_resurrect_a_stale_slot() {
        let mut t = CombineTable::new();
        assert_eq!(t.get_or_insert(42, 7), None); // stamped with generation 1
        t.generation = u32::MAX; // 2^32 - 2 seals later
        assert_eq!(t.get_or_insert(43, 8), None);
        t.reset(); // wraps: the generation counter is back at 1
        assert_eq!(t.generation, 1);
        assert_eq!(
            t.get_or_insert(42, 0),
            None,
            "a slot stamped 2^32 generations ago must not read as live"
        );
        assert_eq!(t.get_or_insert(43, 1), None);
    }

    #[test]
    fn combining_tables_are_lazy_and_sealed_per_destination() {
        // Three machines; a buffer fits exactly 2 read entries.
        let (mut comm, out, _pending, _pool) = make_comm_shared(3, 2 * READ_ENTRY_BYTES);
        assert!(
            comm.combine.iter().all(|t| t.slots.is_empty()),
            "no table storage at construction"
        );
        comm.push_read(1, PropId(0), 5, SideRec { node: 0, aux: 0 });
        assert!(!comm.combine[1].slots.is_empty());
        assert!(
            comm.combine[2].slots.is_empty(),
            "only the destination read from"
        );
        comm.push_read(2, PropId(0), 5, SideRec { node: 1, aux: 0 });
        // Destination 1 seals at capacity; destination 2 stays open.
        comm.push_read(1, PropId(0), 6, SideRec { node: 2, aux: 0 });
        assert_eq!(out.try_iter().count(), 1);
        // Vertex 5 again: a hit on destination 2's open buffer, a fresh
        // wire entry on destination 1's new one.
        comm.push_read(2, PropId(0), 5, SideRec { node: 3, aux: 0 });
        comm.push_read(1, PropId(0), 5, SideRec { node: 4, aux: 0 });
        comm.flush();
        let mut entries = [0usize; 3];
        for env in out.try_iter() {
            entries[env.dst as usize] += crate::message::read_entry_count(&env.payload);
        }
        assert_eq!(entries, [0, 1, 1]);
        assert_eq!(comm.stats().combined_read_hits.load(Ordering::Relaxed), 1);
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
        comm.push_rmi(1, 0, b"x", SideRec { node: 2, aux: 0 });
        assert_eq!(pool.outstanding(), 4);
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
