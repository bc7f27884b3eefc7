//! Property tests of the worker-communication accounting: for arbitrary
//! interleavings of reads, writes, flushes, and simulated copier
//! responses, the pending-entry counter must return to exactly zero and
//! every continuation record must be delivered exactly once. Workers count
//! entries locally and publish them in batches, so a second property pins
//! where the shared counter must be exact and where it may never read zero.

use crossbeam::channel::unbounded;
use pgxd_runtime::buffer::BufferPool;
use pgxd_runtime::health::ClusterHealth;
use pgxd_runtime::message::{self, Envelope, MsgKind};
use pgxd_runtime::props::{PropId, ReduceOp};
use pgxd_runtime::telemetry::Telemetry;
use pgxd_runtime::worker::{CommTuning, SideRec, WorkerComm};
use proptest::prelude::*;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

#[derive(Clone, Debug)]
enum Op {
    Read { dst: u8, offset: u32, aux: u64 },
    Write { dst: u8, offset: u32, bits: u64 },
    Flush,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..3, any::<u32>(), any::<u64>()).prop_map(|(dst, offset, aux)| Op::Read {
            dst,
            offset,
            aux
        }),
        (0u8..3, any::<u32>(), any::<u64>()).prop_map(|(dst, offset, bits)| Op::Write {
            dst,
            offset,
            bits
        }),
        Just(Op::Flush),
    ]
}

/// Simulates the remote copiers: answers every sealed request envelope.
/// Returns the number of write entries applied.
fn answer_all(
    out_rx: &crossbeam::channel::Receiver<Envelope>,
    resp_tx: &crossbeam::channel::Sender<Envelope>,
    pending: &AtomicI64,
) -> usize {
    let mut writes = 0usize;
    while let Ok(env) = out_rx.try_recv() {
        match env.kind {
            MsgKind::ReadReq => {
                let n = message::read_entry_count(&env.payload);
                let mut payload = Vec::new();
                for i in 0..n {
                    let (_prop, offset) = message::read_entry(&env.payload, i);
                    message::push_resp_entry(&mut payload, offset as u64 + 1);
                }
                resp_tx
                    .send(Envelope {
                        src: env.dst,
                        dst: env.src,
                        kind: MsgKind::ReadResp,
                        worker: env.worker,
                        side_id: env.side_id,
                        seq: 0,
                        payload,
                    })
                    .unwrap();
            }
            MsgKind::Write => {
                let n = message::mut_entry_count(&env.payload);
                writes += n;
                pending.fetch_sub(n as i64, Ordering::AcqRel);
            }
            other => panic!("unexpected kind {other:?}"),
        }
    }
    writes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pending_returns_to_zero(ops in prop::collection::vec(arb_op(), 0..200),
                               buffer_bytes in 64usize..512) {
        let (out_tx, out_rx) = unbounded();
        let (resp_tx, resp_rx) = unbounded();
        let pending = Arc::new(AtomicI64::new(0));
        let mut comm = WorkerComm::new(
            0,
            0,
            3,
            CommTuning::fixed(buffer_bytes),
            resp_rx,
            out_tx,
            Arc::new(BufferPool::new(4, buffer_bytes)),
            pending.clone(),
            Telemetry::detached(3, true),
            Arc::new(ClusterHealth::new(3)),
            false,
        );

        let mut issued_reads = 0usize;
        let mut issued_writes = 0usize;
        for op in &ops {
            match *op {
                Op::Read { dst, offset, aux } => {
                    comm.push_read(dst as u16, PropId(1), offset, SideRec { node: 7, aux });
                    issued_reads += 1;
                }
                Op::Write { dst, offset, bits } => {
                    comm.push_mut(dst as u16, PropId(2), ReduceOp::Sum, offset, bits);
                    issued_writes += 1;
                }
                Op::Flush => comm.flush(),
            }
        }
        comm.flush();
        prop_assert!(comm.is_flushed());

        // Drain the "network": copiers answer, worker consumes responses.
        let mut applied_writes = 0usize;
        let mut delivered = 0usize;
        loop {
            applied_writes += answer_all(&out_rx, &resp_tx, &pending);
            let mut progressed = false;
            while let Some(resp) = comm.try_pop_response() {
                progressed = true;
                for i in 0..resp.recs.len() {
                    let bits = resp.read_value(i);
                    // The simulated copier echoes offset + 1; records must
                    // pair with their own request's answer.
                    prop_assert!(bits >= 1);
                    prop_assert_eq!(resp.recs[i].node, 7);
                    delivered += 1;
                }
                comm.finish_response(resp);
            }
            if !progressed && out_rx.is_empty() {
                break;
            }
        }

        prop_assert_eq!(delivered, issued_reads, "every read continues exactly once");
        prop_assert_eq!(applied_writes, issued_writes, "every write applies exactly once");
        prop_assert_eq!(pending.load(Ordering::SeqCst), 0, "no leaked pending entries");
        prop_assert_eq!(comm.in_flight_sides(), 0, "no leaked side structures");
    }

    /// Request order within one destination must be preserved end to end:
    /// responses pair values with records positionally.
    #[test]
    fn read_order_preserved(offsets in prop::collection::vec(any::<u32>(), 1..100),
                            buffer_bytes in 64usize..256) {
        let (out_tx, out_rx) = unbounded();
        let (resp_tx, resp_rx) = unbounded();
        let pending = Arc::new(AtomicI64::new(0));
        let mut comm = WorkerComm::new(
            0, 0, 2, CommTuning::fixed(buffer_bytes), resp_rx, out_tx,
            Arc::new(BufferPool::new(4, buffer_bytes)),
            pending.clone(),
            Telemetry::detached(2, false),
            Arc::new(ClusterHealth::new(2)),
            false,
        );
        for (i, &off) in offsets.iter().enumerate() {
            comm.push_read(1, PropId(0), off, SideRec { node: 0, aux: i as u64 });
        }
        comm.flush();
        answer_all(&out_rx, &resp_tx, &pending);
        let mut seen: Vec<(u64, u64)> = Vec::new(); // (aux, value)
        while let Some(resp) = comm.try_pop_response() {
            for i in 0..resp.recs.len() {
                seen.push((resp.recs[i].aux, resp.read_value(i)));
            }
            comm.finish_response(resp);
        }
        prop_assert_eq!(seen.len(), offsets.len());
        // Each aux's value must be its own offset + 1 (the echo), proving
        // the side record lined up with the right payload slot.
        for (aux, value) in seen {
            prop_assert_eq!(value, offsets[aux as usize] as u64 + 1);
        }
    }

    /// Read combining must be invisible to continuations: for any read
    /// sequence (duplicates included, a small offset domain forces many),
    /// the delivered `(aux → value)` mapping is bit-identical with
    /// combining on and off, while the combined run never puts *more*
    /// entries on the wire.
    #[test]
    fn combining_is_bit_identical(offsets in prop::collection::vec(0u32..16, 1..120),
                                  buffer_bytes in 64usize..256) {
        // Per run: delivered (aux, value) pairs, wire entries, combined hits.
        type RunOutcome = (Vec<(u64, u64)>, usize, u64);
        let mut runs: Vec<RunOutcome> = Vec::new();
        for combining in [true, false] {
            let (out_tx, out_rx) = unbounded();
            let (resp_tx, resp_rx) = unbounded();
            let pending = Arc::new(AtomicI64::new(0));
            let mut tuning = CommTuning::fixed(buffer_bytes);
            tuning.read_combining = combining;
            let mut comm = WorkerComm::new(
                0, 0, 2, tuning, resp_rx, out_tx,
                Arc::new(BufferPool::new(4, buffer_bytes)),
                pending.clone(),
                Telemetry::detached(2, false),
                Arc::new(ClusterHealth::new(2)),
                false,
            );
            for (i, &off) in offsets.iter().enumerate() {
                comm.push_read(1, PropId(3), off, SideRec { node: 0, aux: i as u64 });
            }
            comm.flush();
            let mut wire_entries = 0usize;
            let envs: Vec<Envelope> = out_rx.try_iter().collect();
            for env in envs {
                wire_entries += message::read_entry_count(&env.payload);
                let n = message::read_entry_count(&env.payload);
                let mut payload = Vec::new();
                for i in 0..n {
                    let (_prop, offset) = message::read_entry(&env.payload, i);
                    message::push_resp_entry(&mut payload, offset as u64 + 1);
                }
                resp_tx.send(Envelope {
                    src: env.dst,
                    dst: env.src,
                    kind: MsgKind::ReadResp,
                    worker: env.worker,
                    side_id: env.side_id,
                    seq: 0,
                    payload,
                }).unwrap();
            }
            let mut seen: Vec<(u64, u64)> = Vec::new();
            while let Some(resp) = comm.try_pop_response() {
                for i in 0..resp.recs.len() {
                    seen.push((resp.recs[i].aux, resp.read_value(i)));
                }
                comm.finish_response(resp);
            }
            seen.sort_unstable();
            prop_assert_eq!(pending.load(Ordering::SeqCst), 0);
            let hits = comm.stats().combined_read_hits.load(Ordering::SeqCst);
            runs.push((seen, wire_entries, hits));
        }
        let (combined, plain) = (&runs[0], &runs[1]);
        prop_assert_eq!(&combined.0, &plain.0, "continuation values identical");
        prop_assert!(combined.1 <= plain.1, "combining never adds wire entries");
        prop_assert_eq!(plain.1 - combined.1, combined.2 as usize,
                        "every saved wire entry is an accounted hit");
        prop_assert_eq!(plain.2, 0, "combining off never reports hits");
    }
}

#[derive(Clone, Debug)]
enum AcctOp {
    Read {
        dst: u8,
        offset: u32,
    },
    Write {
        dst: u8,
        offset: u32,
    },
    Flush,
    Publish,
    /// Copiers answer everything sealed so far; the worker drains the
    /// responses, its continuations chaining up to `chain` further reads.
    Respond {
        chain: u8,
    },
}

fn arb_acct_op() -> impl Strategy<Value = AcctOp> {
    prop_oneof![
        (1u8..3, 0u32..24).prop_map(|(dst, offset)| AcctOp::Read { dst, offset }),
        (1u8..3, 0u32..24).prop_map(|(dst, offset)| AcctOp::Write { dst, offset }),
        (1u8..3, 0u32..24).prop_map(|(dst, offset)| AcctOp::Read { dst, offset }),
        Just(AcctOp::Flush),
        Just(AcctOp::Publish),
        (0u8..6).prop_map(|chain| AcctOp::Respond { chain }),
    ]
}

/// One worker plus the model of what is in flight: entries pushed and not
/// yet consumed (a write applied by a copier, a read record finished).
struct Acct {
    comm: WorkerComm,
    out_rx: crossbeam::channel::Receiver<Envelope>,
    resp_tx: crossbeam::channel::Sender<Envelope>,
    pending: Arc<AtomicI64>,
    in_flight: i64,
}

impl Acct {
    fn new(buffer_bytes: usize) -> Self {
        let (out_tx, out_rx) = unbounded();
        let (resp_tx, resp_rx) = unbounded();
        let pending = Arc::new(AtomicI64::new(0));
        let comm = WorkerComm::new(
            0,
            0,
            3,
            CommTuning::fixed(buffer_bytes),
            resp_rx,
            out_tx,
            Arc::new(BufferPool::new(4, buffer_bytes)),
            pending.clone(),
            Telemetry::detached(3, false),
            Arc::new(ClusterHealth::new(3)),
            false,
        );
        Acct {
            comm,
            out_rx,
            resp_tx,
            pending,
            in_flight: 0,
        }
    }

    fn pending(&self) -> i64 {
        self.pending.load(Ordering::SeqCst)
    }

    /// The counter may lag the truth by this worker's unpublished entries,
    /// never lead it and never go negative.
    fn check_bounds(&self) {
        let p = self.pending();
        assert!(
            0 <= p && p <= self.in_flight,
            "pending {} outside 0..={}",
            p,
            self.in_flight
        );
    }

    /// After a publish point the counter is exact.
    fn check_exact(&self, at: &str) {
        assert_eq!(self.pending(), self.in_flight, "after {}", at);
    }

    /// A push, which is a publish point exactly when it seals a buffer.
    fn push(&mut self, write: bool, dst: u8, offset: u32) {
        let sealed_before = self.out_rx.len();
        if write {
            self.comm
                .push_mut(dst as u16, PropId(2), ReduceOp::Sum, offset, 1);
        } else {
            self.comm
                .push_read(dst as u16, PropId(1), offset, SideRec { node: 7, aux: 0 });
        }
        self.in_flight += 1;
        if self.out_rx.len() > sealed_before {
            self.check_exact("an auto-seal");
        }
        self.check_bounds();
    }

    /// Copiers answer; the worker drains. Returns whether anything moved.
    /// With `retired` set the worker has no work unit left, so the §3.2
    /// rule reads `pending` alone: it must not be zero while this worker
    /// still holds an unsealed entry.
    fn respond(&mut self, chain: &mut u32, retired: bool) -> bool {
        let writes = answer_all(&self.out_rx, &self.resp_tx, &self.pending);
        self.in_flight -= writes as i64;
        self.check_bounds();
        let mut worked = writes > 0;
        while let Some(resp) = self.comm.try_pop_response() {
            worked = true;
            let n = resp.values().count();
            assert_eq!(n, resp.recs.len());
            for (i, (rec, bits)) in resp.values().enumerate() {
                assert_eq!(rec.node, 7);
                assert!(bits >= 1);
                if *chain > 0 {
                    // The continuation issues a further read.
                    *chain -= 1;
                    self.push(false, 1 + (i % 2) as u8, bits as u32 % 24);
                }
            }
            self.comm.finish_response(resp);
            self.in_flight -= n as i64;
            self.check_exact("finish_response");
            if retired && !self.comm.is_flushed() {
                assert!(self.pending() > 0, "zero with an unsealed entry");
            }
        }
        worked
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Batched termination accounting. `pending` is exact after every
    /// publish point (seal, flush, explicit publish, finish_response),
    /// within `0..=in flight` everywhere else, and — once the worker's work
    /// units are retired, which the protocol precedes with a publish —
    /// never zero while the worker holds an unsealed entry, however its
    /// continuations chain.
    #[test]
    fn pending_is_exact_at_every_publish_point(
        ops in prop::collection::vec(arb_acct_op(), 0..120),
        buffer_bytes in 64usize..256,
        tail_chain in 0u32..40,
    ) {
        let mut a = Acct::new(buffer_bytes);
        for op in &ops {
            match *op {
                AcctOp::Read { dst, offset } => a.push(false, dst, offset),
                AcctOp::Write { dst, offset } => a.push(true, dst, offset),
                AcctOp::Flush => {
                    a.comm.flush();
                    prop_assert!(a.comm.is_flushed());
                    a.check_exact("flush");
                }
                AcctOp::Publish => {
                    a.comm.publish_pending();
                    a.check_exact("publish_pending");
                }
                AcctOp::Respond { chain } => {
                    let mut chain = chain as u32;
                    a.respond(&mut chain, false);
                }
            }
        }
        // The worker's last work unit retires: publish, then retire.
        a.comm.publish_pending();
        a.check_exact("the pre-retire publish");
        if !a.comm.is_flushed() {
            prop_assert!(a.pending() > 0);
        }
        // The post-task drain loop, continuations still chaining reads.
        a.comm.flush();
        let mut chain = tail_chain;
        while a.respond(&mut chain, true) {
            a.comm.flush();
            a.check_exact("flush");
        }
        prop_assert_eq!(a.in_flight, 0, "everything issued was consumed");
        prop_assert_eq!(a.pending(), 0);
        prop_assert_eq!(a.comm.in_flight_sides(), 0);
    }
}
