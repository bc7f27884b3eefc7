//! Copier threads (§3.4).
//!
//! "The Communication Manager controls the copier threads which process
//! incoming request messages. As for write (reduction) requests, the copier
//! applies them directly with atomic instructions. As for read requests,
//! the copier creates a corresponding response message and sends it back to
//! the originating machine. The remote method invocation (RMI) is also
//! handled by the copier threads."
//!
//! When the reliability protocol is enabled the copier is also the
//! request-lane endpoint of it: every received envelope refreshes the
//! sender's liveness clock, sequenced requests are acknowledged and
//! dedup-filtered before processing, and `Ack`/`Heartbeat` control
//! messages are consumed here without touching the data path.

use crate::health::JobError;
use crate::ids::MachineId;
use crate::machine::MachineState;
use crate::message::{
    ack_entries, mut_entry, mut_entry_count, push_ack_entry, push_resp_entry, push_rmi_resp_entry,
    read_entry, read_entry_count, rmi_entries, Envelope, MsgKind, ACK_ENTRY_BYTES,
};
use crate::message::{
    decode_term_probe, decode_term_release, decode_term_stat, encode_term_probe,
    encode_term_release,
};
use crate::props::{Column, PropId};
use crate::reliable::REQUEST_LANE;
use crate::term::TermAction;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A tiny property-column cache so copiers don't take the registry lock
/// per entry. It lives as long as its copier thread, so it is emptied
/// whenever the store has dropped a property since the last envelope: a
/// kept handle would pin the dropped column and go on answering for it.
#[derive(Default)]
pub struct ColCache {
    slots: Vec<Option<Arc<Column>>>,
    /// `PropertyStore::drops` when `slots` was last known current.
    drops_seen: u64,
}

impl ColCache {
    /// Forgets every handle if `m` dropped a property since the last call.
    fn forget_dropped(&mut self, m: &MachineState) {
        let drops = m.props.drops();
        if drops != self.drops_seen {
            self.slots.clear();
            self.drops_seen = drops;
        }
    }

    /// Resolves a property id to its column, caching the lookup. A request
    /// naming a dropped (or never-registered) property is a protocol
    /// violation — the classic symptom is a duplicated request replayed
    /// after the driver retired the property — and surfaces as a
    /// descriptive error instead of a panic.
    fn get(&mut self, m: &MachineState, prop: u16) -> Result<&Arc<Column>, String> {
        let idx = prop as usize;
        if self.slots.len() <= idx {
            self.slots.resize_with(idx + 1, || None);
        }
        if self.slots[idx].is_none() {
            match m.props.try_column(PropId(prop)) {
                Some(col) => self.slots[idx] = Some(col),
                None => {
                    return Err(format!(
                        "machine {}: request entry names property {} which is not \
                         registered (dropped or never created) — stale or duplicated \
                         request",
                        m.id, prop
                    ))
                }
            }
        }
        Ok(self.slots[idx].as_ref().unwrap())
    }
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
/// describe protocol violations (stale property ids, misrouted kinds) the
/// caller should surface through [`crate::health::ClusterHealth::abort`].
pub fn process_request(
    m: &MachineState,
    cache: &mut ColCache,
    env: Envelope,
) -> Result<(), String> {
    m.stats.msgs_processed.fetch_add(1, Ordering::Relaxed);
    cache.forget_dropped(m);
    match env.kind {
        MsgKind::ReadReq => {
            let n = read_entry_count(&env.payload);
            let mut payload = m.send_pool.acquire_or_alloc();
            for i in 0..n {
                let (prop, offset) = read_entry(&env.payload, i);
                let col = cache.get(m, prop)?;
                push_resp_entry(&mut payload, col.load_bits(offset as usize));
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
        MsgKind::Write => {
            let n = mut_entry_count(&env.payload);
            for i in 0..n {
                let (prop, op, offset, bits) = mut_entry(&env.payload, i);
                let col = cache.get(m, prop)?;
                col.reduce_bits_atomic(offset as usize, op, bits);
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
        MsgKind::GhostSync => {
            // offset field = global ghost ordinal; value is stored into
            // this machine's ghost slot for that vertex.
            let n = mut_entry_count(&env.payload);
            let base = m.graph.num_local();
            for i in 0..n {
                let (prop, _op, ordinal, bits) = mut_entry(&env.payload, i);
                let col = cache.get(m, prop)?;
                col.store_bits(base + ordinal as usize, bits);
            }
            m.pending.fetch_sub(n as i64, Ordering::AcqRel);
            m.term_consumed(n as u64);
            m.send_pool.release(env.payload);
        }
        MsgKind::GhostReduce => {
            // offset field = owner-local vertex offset; reduce the partial
            // into the authoritative cell.
            let n = mut_entry_count(&env.payload);
            for i in 0..n {
                let (prop, op, offset, bits) = mut_entry(&env.payload, i);
                let col = cache.get(m, prop)?;
                col.reduce_bits_atomic(offset as usize, op, bits);
            }
            m.pending.fetch_sub(n as i64, Ordering::AcqRel);
            m.term_consumed(n as u64);
            m.send_pool.release(env.payload);
        }
        MsgKind::Rmi => {
            let mut payload = m.send_pool.acquire_or_alloc();
            for (fn_id, args) in rmi_entries(&env.payload) {
                let f = m.rmi_fn(fn_id);
                let result = f(m, args);
                push_rmi_resp_entry(&mut payload, &result);
            }
            let _ = m.outbox_tx.send(Envelope {
                src: m.id,
                dst: env.src,
                kind: MsgKind::RmiResp,
                worker: env.worker,
                side_id: env.side_id,
                seq: 0,
                payload,
            });
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
        MsgKind::ReadResp
        | MsgKind::RmiResp
        | MsgKind::Shutdown
        | MsgKind::Ack
        | MsgKind::Heartbeat => {
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
    use crate::message::push_mut_entry;
    use crate::props::{ReduceOp, TypeTag};
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
}
