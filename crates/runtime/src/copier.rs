//! Copier threads (§3.4).
//!
//! "The Communication Manager controls the copier threads which process
//! incoming request messages. As for write (reduction) requests, the copier
//! applies them directly with atomic instructions. As for read requests,
//! the copier creates a corresponding response message and sends it back to
//! the originating machine." The paper's copiers also run remote method
//! invocations; nothing here issues one, so a copier answers reads and
//! applies writes only (DESIGN.md §2).
//!
//! A copier reads every byte a peer sends, so it fails a malformed
//! request with an error that aborts the job, never with a panic: the
//! module denies indexing, `unwrap`, `expect` and `panic!` outside tests.
//!
//! When the reliability protocol is enabled the copier is also the
//! request-lane endpoint of it: every received envelope refreshes the
//! sender's liveness clock, sequenced requests are acknowledged and
//! dedup-filtered before processing, and `Ack`/`Heartbeat` control
//! messages are consumed here without touching the data path.

#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic
    )
)]

use crate::health::JobError;
use crate::ids::MachineId;
use crate::machine::MachineState;
use crate::message::{
    ack_entries, mut_entry_count, mut_runs, push_ack_entry, push_resp_entry, read_runs, Envelope,
    MsgKind, ACK_ENTRY_BYTES,
};
use crate::message::{
    decode_term_probe, decode_term_release, decode_term_stat, encode_term_probe,
    encode_term_release,
};
use crate::props::{Column, PropId, ReduceOp};
use crate::reliable::REQUEST_LANE;
use crate::term::TermAction;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A tiny property-column cache so copiers don't take the registry lock
/// per run. It holds `(id, column)` pairs in first-touch order — jobs name
/// a handful of properties, so a scan resolves one, and the cache never
/// grows with how many ids the engine has issued. It lives as long as its
/// copier thread, so it is emptied whenever the store has dropped a
/// property since the last envelope: a kept handle would pin the dropped
/// column and go on answering for it.
#[derive(Default)]
pub struct ColCache {
    cols: Vec<(PropId, Arc<Column>)>,
    /// `PropertyStore::drops` when `cols` was last known current.
    drops_seen: u64,
}

impl ColCache {
    /// Forgets every handle if `m` dropped a property since the last call.
    fn forget_dropped(&mut self, m: &MachineState) {
        let drops = m.props.drops();
        if drops != self.drops_seen {
            self.cols.clear();
            self.drops_seen = drops;
        }
    }

    /// Resolves a property id to its column, caching the lookup. A request
    /// naming a dropped (or never-registered) property is a protocol
    /// violation — the classic symptom is a duplicated request replayed
    /// after the driver retired the property — and surfaces as a
    /// descriptive error instead of a panic.
    fn get(&mut self, m: &MachineState, prop: u16) -> Result<&Column, String> {
        let prop = PropId(prop);
        let missing = || {
            format!(
                "machine {}: request entry names property {} which is not registered \
                 (dropped or never created) — stale or duplicated request",
                m.id, prop.0
            )
        };
        if !self.cols.iter().any(|(id, _)| *id == prop) {
            let col = m.props.try_column(prop).ok_or_else(missing)?;
            self.cols.push((prop, col));
        }
        let cached = self.cols.iter().find(|(id, _)| *id == prop);
        cached.map(|(_, col)| &**col).ok_or_else(missing)
    }
}

/// Validates a run's op byte, and — unless the run only stores — that the
/// op is defined on the column's type: entry bytes arrive unchecked (a
/// transport validates frame headers only), so a bad one fails the job
/// instead of the copier thread.
fn run_op(
    m: &MachineState,
    kind: MsgKind,
    prop: u16,
    byte: u8,
    col: &Column,
) -> Result<ReduceOp, String> {
    let op = ReduceOp::from_u8(byte).ok_or_else(|| {
        format!(
            "machine {}: {kind:?} entry for property {prop} carries unknown reduce op {byte}",
            m.id
        )
    })?;
    if kind != MsgKind::GhostSync && !op.defined_on(col.tag()) {
        return Err(format!(
            "machine {}: {kind:?} entry applies {op:?} to property {prop} of type {:?}, \
             which does not define it",
            m.id,
            col.tag()
        ));
    }
    Ok(op)
}

/// The error for an entry from `src` naming a cell outside the range its
/// kind addresses (owned cells, or for `GhostSync` the mirror slots of
/// `src`'s vertices).
fn out_of_range(m: &MachineState, kind: MsgKind, src: MachineId, prop: u16, index: u32) -> String {
    let (range, len) = match kind {
        MsgKind::GhostSync => ("ghost", m.graph.mirrors().from_owner(src).len()),
        _ => ("owned", m.props.len_local()),
    };
    format!(
        "machine {}: {kind:?} entry for property {prop} names cell {index}, past the \
         {range} range of {len}",
        m.id
    )
}

/// Sends a single-entry acknowledgement for `(lane, seq)` back to `dst`.
fn send_ack(m: &MachineState, dst: MachineId, lane: u32, seq: u64) {
    let mut payload = Vec::with_capacity(ACK_ENTRY_BYTES);
    push_ack_entry(&mut payload, lane, seq);
    let _ = m.outbox_tx.send(Envelope {
        src: m.id,
        dst,
        kind: MsgKind::Ack,
        worker: 0,
        side_id: 0,
        seq: 0,
        payload,
    });
    m.stats.acks_sent.fetch_add(1, Ordering::Relaxed);
}

/// Runs one copier thread until a `Shutdown` envelope arrives.
pub fn copier_loop(m: Arc<MachineState>) {
    let mut cache = ColCache::default();
    let tele = m.telemetry.clone();
    let reliable = m.reliability.enabled();
    while let Ok(env) = m.copier_rx.recv() {
        match env.kind {
            MsgKind::Shutdown => break,
            MsgKind::Ack => {
                m.health.heard(env.src);
                for (lane, seq) in ack_entries(&env.payload) {
                    m.reliability.on_ack(env.src, lane, seq);
                }
                continue;
            }
            MsgKind::Heartbeat => {
                m.health.heard(env.src);
                continue;
            }
            _ => {}
        }
        if reliable {
            m.health.heard(env.src);
            if env.seq != 0 {
                // Always re-ack: the original ack may itself have been lost.
                send_ack(&m, env.src, REQUEST_LANE, env.seq);
                if !m.reliability.accept_request(env.src, env.seq) {
                    m.stats.dup_suppressed.fetch_add(1, Ordering::Relaxed);
                    m.send_pool.release(env.payload);
                    continue;
                }
            }
        }
        let result = if tele.enabled() {
            let t0 = tele.now_ns();
            let r = process_request(&m, &mut cache, env);
            tele.record_copier_service(tele.now_ns().saturating_sub(t0));
            r
        } else {
            process_request(&m, &mut cache, env)
        };
        if let Err(msg) = result {
            m.health.abort(JobError::Protocol(msg));
        }
    }
}

/// Processes a single incoming request envelope. Public so tests (and the
/// bandwidth microbenchmarks) can drive a copier synchronously. Errors
/// describe protocol violations (stale property ids, malformed entries,
/// misrouted kinds) the caller should surface through
/// [`crate::health::ClusterHealth::abort`].
pub fn process_request(
    m: &MachineState,
    cache: &mut ColCache,
    env: Envelope,
) -> Result<(), String> {
    m.stats.msgs_processed.fetch_add(1, Ordering::Relaxed);
    cache.forget_dropped(m);
    match env.kind {
        MsgKind::ReadReq => {
            let mut payload = m.send_pool.acquire_or_alloc();
            for run in read_runs(&env.payload) {
                let col = cache.get(m, run.prop)?;
                for offset in run.offsets() {
                    let bits = col
                        .load_owned(offset)
                        .ok_or_else(|| out_of_range(m, env.kind, env.src, run.prop, offset))?;
                    push_resp_entry(&mut payload, bits);
                }
            }
            let _ = m.outbox_tx.send(Envelope {
                src: m.id,
                dst: env.src,
                kind: MsgKind::ReadResp,
                worker: env.worker,
                side_id: env.side_id,
                seq: 0,
                payload,
            });
            m.send_pool.release(env.payload);
        }
        MsgKind::Write | MsgKind::GhostSync | MsgKind::GhostReduce => {
            // Write and GhostReduce reduce into owned cells (offset field =
            // owner-local vertex offset); GhostSync stores into this
            // machine's mirror slots of the sender's vertices (offset field
            // = ordinal among them).
            for run in mut_runs(&env.payload) {
                let col = cache.get(m, run.prop)?;
                let op = run_op(m, env.kind, run.prop, run.op, col)?;
                let applied = match env.kind {
                    MsgKind::GhostSync => {
                        col.store_ghost_run(m.graph.mirrors().from_owner(env.src), run.entries())
                    }
                    _ => col.reduce_run(op, run.entries()),
                };
                applied.map_err(|index| out_of_range(m, env.kind, env.src, run.prop, index))?;
            }
            let n = mut_entry_count(&env.payload);
            if env.kind == MsgKind::GhostSync {
                // Release: a reader that sees the count sees the values.
                // Duplicates never get here, so each entry counts once.
                m.ghosts_synced.fetch_add(n as u64, Ordering::Release);
            }
            m.pending.fetch_sub(n as i64, Ordering::AcqRel);
            m.term_consumed(n as u64);
            // One-way payloads are recycled into the *receiver's* pool
            // (same rationale as Ping below): traffic is symmetric enough
            // that pools stay balanced, and every pool-acquired buffer is
            // released exactly once, which keeps the cluster-wide
            // `outstanding` sum an exact in-flight count.
            m.send_pool.release(env.payload);
        }
        MsgKind::BarrierArrive => {
            // Coordinator only (machine 0): when the last machine arrives,
            // broadcast the release to every machine including ourselves.
            if m.dist_barrier.on_arrive() {
                for dst in 0..m.config.machines as u16 {
                    let _ = m.outbox_tx.send(Envelope {
                        src: m.id,
                        dst,
                        kind: MsgKind::BarrierRelease,
                        worker: 0,
                        side_id: 0,
                        seq: 0,
                        payload: Vec::new(),
                    });
                }
            }
        }
        MsgKind::BarrierRelease => {
            m.dist_barrier.on_release();
        }
        MsgKind::Ping => {
            // Bandwidth probe: payload already counted by the fabric; the
            // single pending entry is retired here. The payload is recycled
            // into this machine's pool — in a symmetric N:N flood every
            // machine receives as much as it sends, so pools stay balanced
            // and senders avoid fresh allocations (real NICs post recycled
            // registered buffers the same way).
            m.send_pool.release(env.payload);
            m.pending.fetch_sub(1, Ordering::AcqRel);
            m.term_consumed(1);
        }
        MsgKind::TermStat => {
            // Coordinator only (machine 0): fold the report into the wave
            // protocol and send what it asks for — a probe or the release
            // to every machine (ourselves included), a repeat of either to
            // just the reporter.
            let Some(stat) = decode_term_stat(&env.payload) else {
                return Err(format!(
                    "machine {}: malformed TermStat from machine {}",
                    m.id, env.src
                ));
            };
            let everyone = 0..m.config.machines as MachineId;
            let reporter = env.src..env.src + 1;
            let mut payload = Vec::with_capacity(16);
            let (kind, targets) = match m.term.coord_on_stat(env.src as usize, stat) {
                TermAction::None => return Ok(()),
                TermAction::Probe { token, probe } => {
                    encode_term_probe(&mut payload, token, probe);
                    (MsgKind::TermProbe, everyone)
                }
                TermAction::Reprobe { token, probe } => {
                    encode_term_probe(&mut payload, token, probe);
                    (MsgKind::TermProbe, reporter)
                }
                TermAction::Release(token) => {
                    encode_term_release(&mut payload, token);
                    (MsgKind::TermRelease, everyone)
                }
                TermAction::ReRelease(token) => {
                    encode_term_release(&mut payload, token);
                    (MsgKind::TermRelease, reporter)
                }
            };
            for dst in targets {
                let _ = m.outbox_tx.send(Envelope {
                    src: m.id,
                    dst,
                    kind,
                    worker: 0,
                    side_id: 0,
                    seq: 0,
                    payload: payload.clone(),
                });
            }
        }
        MsgKind::TermProbe => {
            let Some((token, probe)) = decode_term_probe(&env.payload) else {
                return Err(format!(
                    "machine {}: malformed TermProbe from machine {}",
                    m.id, env.src
                ));
            };
            m.answer_term_probe(token, probe);
        }
        MsgKind::TermRelease => {
            let Some(token) = decode_term_release(&env.payload) else {
                return Err(format!(
                    "machine {}: malformed TermRelease from machine {}",
                    m.id, env.src
                ));
            };
            if let Some(done_at_ns) = m.term.release(token) {
                let tele = &m.telemetry;
                tele.record_term_release_wait(tele.now_ns().saturating_sub(done_at_ns));
            }
        }
        MsgKind::Abort => {
            // A peer's watchdog confirmed a machine dead. Record the
            // verdict locally; when we are the coordinator and this is
            // the first we hear of it, re-broadcast so every rank stops
            // waiting on the corpse's sockets instead of each burning a
            // full watchdog deadline on its own.
            let Some(dead) = crate::message::decode_abort(&env.payload) else {
                return Err(format!(
                    "machine {}: malformed Abort from machine {}",
                    m.id, env.src
                ));
            };
            let first = m.health.abort(JobError::MachineDown { machine: dead });
            if first && m.id == 0 {
                for dst in 1..m.config.machines as u16 {
                    let _ = m.outbox_tx.send(Envelope {
                        src: m.id,
                        dst,
                        kind: MsgKind::Abort,
                        worker: 0,
                        side_id: 0,
                        seq: 0,
                        payload: env.payload.clone(),
                    });
                }
            }
        }
        MsgKind::ReadResp | MsgKind::Shutdown | MsgKind::Ack | MsgKind::Heartbeat => {
            return Err(format!(
                "machine {}: {:?} envelope routed into request processing",
                m.id, env.kind
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::config::Config;
    use crate::message::{push_mut_entry, push_read_entry};
    use crate::props::TypeTag;
    use pgxd_graph::generate;

    /// A copier's cache outlives every job, the properties it names do
    /// not: once a property is dropped the copier must neither keep its
    /// column allocated nor go on serving requests that name it.
    #[test]
    fn dropped_property_is_released_and_rejected() {
        let g = generate::ring(16);
        let mut cluster = Cluster::load(&g, Config::test(2)).unwrap();
        let dead = cluster.add_prop_raw("dead", TypeTag::I64, 0);
        let live = cluster.add_prop_raw("live", TypeTag::I64, 0);
        let m = cluster.machine(0).clone();
        let mut cache = ColCache::default();
        let write_to = |prop: PropId| {
            let mut payload = Vec::new();
            push_mut_entry(&mut payload, prop.0, ReduceOp::Sum, 0, 5);
            m.pending.fetch_add(1, Ordering::AcqRel);
            Envelope {
                src: 1,
                dst: 0,
                kind: MsgKind::Write,
                worker: 0,
                side_id: 0,
                seq: 0,
                payload,
            }
        };

        process_request(&m, &mut cache, write_to(dead)).unwrap();
        let column = Arc::downgrade(&m.props.column(dead));
        assert_eq!(column.upgrade().unwrap().load_bits(0), 5);

        cluster.drop_prop(dead);
        process_request(&m, &mut cache, write_to(live)).unwrap();
        assert!(
            column.upgrade().is_none(),
            "the copier's cache kept a dropped column alive"
        );
        let err = process_request(&m, &mut cache, write_to(dead)).unwrap_err();
        assert!(err.contains("not registered"), "unexpected error: {err}");
        // The rejected write retired nothing.
        m.pending.fetch_sub(1, Ordering::AcqRel);
    }

    /// A request from machine 1 to machine 0 carrying `payload` as is.
    fn request(kind: MsgKind, payload: Vec<u8>) -> Envelope {
        Envelope {
            src: 1,
            dst: 0,
            kind,
            worker: 0,
            side_id: 0,
            seq: 0,
            payload,
        }
    }

    /// Entry bytes reach the copier unchecked (TCP validates frame headers
    /// only): an op byte no `ReduceOp` has fails the job, not the thread.
    #[test]
    fn unknown_op_byte_is_rejected() {
        let g = generate::ring(16);
        let mut cluster = Cluster::load(&g, Config::test(2)).unwrap();
        let p = cluster.add_prop_raw("p", TypeTag::I64, 0);
        let m = cluster.machine(0).clone();
        let mut cache = ColCache::default();
        for kind in [MsgKind::Write, MsgKind::GhostSync, MsgKind::GhostReduce] {
            let mut payload = Vec::new();
            push_mut_entry(&mut payload, p.0, ReduceOp::Sum, 0, 1);
            payload[2] = 9;
            let err = process_request(&m, &mut cache, request(kind, payload)).unwrap_err();
            assert!(err.contains("unknown reduce op 9"), "{kind:?}: {err}");
        }
    }

    /// A logical reduction on an f64 column has no meaning; a request
    /// asking for one fails the job.
    #[test]
    fn logical_op_on_f64_is_rejected() {
        let g = generate::ring(16);
        let mut cluster = Cluster::load(&g, Config::test(2)).unwrap();
        let p = cluster.add_prop_raw("p", TypeTag::F64, 0);
        let m = cluster.machine(0).clone();
        let mut cache = ColCache::default();
        for kind in [MsgKind::Write, MsgKind::GhostReduce] {
            for op in [ReduceOp::Or, ReduceOp::And] {
                let mut payload = Vec::new();
                push_mut_entry(&mut payload, p.0, op, 0, 1.0f64.to_bits());
                let err = process_request(&m, &mut cache, request(kind, payload)).unwrap_err();
                assert!(err.contains("does not define it"), "{kind:?} {op:?}: {err}");
            }
        }
        assert_eq!(m.props.column(p).load_bits(0), 0);
    }

    /// Every entry kind addresses a range — owned cells for reads, writes
    /// and ghost partials, ghost slots for ghost sync — and an entry past
    /// it fails the job instead of indexing out of bounds.
    #[test]
    fn entries_past_their_range_are_rejected() {
        let g = generate::ring(16);
        let mut cluster = Cluster::load(&g, Config::test(2)).unwrap();
        let p = cluster.add_prop_raw("p", TypeTag::I64, 0);
        let m = cluster.machine(0).clone();
        let mut cache = ColCache::default();
        let past = (m.props.len_local() + m.props.len_ghost()) as u32;
        for (kind, index) in [
            (MsgKind::Write, past),
            (MsgKind::GhostReduce, u32::MAX),
            (MsgKind::GhostSync, m.props.len_ghost() as u32),
        ] {
            let mut payload = Vec::new();
            push_mut_entry(&mut payload, p.0, ReduceOp::Sum, 0, 1);
            push_mut_entry(&mut payload, p.0, ReduceOp::Sum, index, 1);
            let err = process_request(&m, &mut cache, request(kind, payload)).unwrap_err();
            assert!(
                err.contains(&format!("names cell {index}")),
                "{kind:?}: {err}"
            );
        }
        let mut payload = Vec::new();
        push_read_entry(&mut payload, p.0, past);
        let err = process_request(&m, &mut cache, request(MsgKind::ReadReq, payload)).unwrap_err();
        assert!(err.contains("past the owned range"), "ReadReq: {err}");
    }

    /// The cache holds what the copier touched since the last drop, not a
    /// slot per property id the engine has ever issued.
    #[test]
    fn cache_does_not_grow_with_ids_issued() {
        let g = generate::ring(16);
        let mut cluster = Cluster::load(&g, Config::test(2)).unwrap();
        let m = cluster.machine(0).clone();
        let mut cache = ColCache::default();
        let mut write_to = |prop: PropId| {
            let mut payload = Vec::new();
            push_mut_entry(&mut payload, prop.0, ReduceOp::Sum, 0, 1);
            m.pending.fetch_add(1, Ordering::AcqRel);
            process_request(&m, &mut cache, request(MsgKind::Write, payload)).unwrap();
        };
        for _ in 0..5_000 {
            let p = cluster.add_prop_raw("tmp", TypeTag::I64, 0);
            write_to(p);
            cluster.drop_prop(p);
        }
        write_to(cluster.add_prop_raw("fresh", TypeTag::I64, 0));
        assert_eq!(cache.cols.len(), 1);
    }
}
