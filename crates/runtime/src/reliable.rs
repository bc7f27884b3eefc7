//! Reliable delivery over the (possibly faulty) fabric: per-(destination,
//! lane) sequence numbers, duplicate-suppression windows, and an
//! ack/retransmit store with exponential backoff.
//!
//! The protocol piggybacks on the engine's existing buffer granularity —
//! one envelope is one sealed ~buffer-sized batch, so sequencing and
//! acknowledging *envelopes* keeps the reliability layer entirely out of
//! the per-record hot path (the motivation in TaskTorrent-style runtimes).
//!
//! Lanes separate the independently-ordered streams between one pair of
//! machines: lane 0 carries request traffic (consumed by the destination's
//! copiers), lane `1 + w` carries response traffic for the destination's
//! worker `w`. Each hop is acknowledged by its consumer — a request buffer
//! by the copier that dequeues it, a response buffer by the worker it is
//! routed to — so a lost response is retransmitted by the responding
//! machine without the original requester being involved.
//!
//! Sequence numbers start at 1; `seq == 0` marks unsequenced traffic
//! (control messages, or the protocol being disabled).

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::config::{Config, ReliabilityConfig};
use crate::health::JobError;
use crate::ids::MachineId;
use crate::message::Envelope;
use crate::stats::MachineStats;

/// The copier (request) lane.
pub const REQUEST_LANE: u32 = 0;

/// Ceiling on the backed-off retransmission timeout, milliseconds.
pub const RTO_MAX_MS: u64 = 200;

/// Retransmissions of one envelope before its destination is declared dead.
const MAX_RETRIES: u32 = 12;

/// The lane an envelope travels on: 0 for requests, `1 + worker` for
/// responses (the worker index is relative to the destination machine).
#[inline]
pub fn lane_of(env: &Envelope) -> u32 {
    if env.kind.is_response() {
        1 + env.worker as u32
    } else {
        REQUEST_LANE
    }
}

/// Sliding duplicate-suppression window for one (source, lane) stream:
/// a cumulative floor plus the set of out-of-order sequence numbers seen
/// above it. Memory stays bounded by the reorder window, not the stream
/// length, because the floor advances over every contiguous prefix.
#[derive(Debug, Default)]
pub struct DedupWindow {
    /// Every `seq <= cum` has been accepted.
    cum: u64,
    /// Accepted sequence numbers above `cum`.
    seen: BTreeSet<u64>,
}

impl DedupWindow {
    /// Returns `true` exactly once per sequence number: the first delivery
    /// is accepted, every replay is rejected.
    pub fn accept(&mut self, seq: u64) -> bool {
        if seq <= self.cum || self.seen.contains(&seq) {
            return false;
        }
        self.seen.insert(seq);
        while self.seen.remove(&(self.cum + 1)) {
            self.cum += 1;
        }
        true
    }
}

struct InFlight {
    env: Envelope,
    due: Instant,
    retries: u32,
}

/// Per-machine reliability state: sequence allocation for outbound
/// traffic, the unacknowledged-envelope store the poller sweeps for
/// retransmission, and the inbound dedup windows for the request lane
/// (workers keep their own response-lane windows, lock-free).
pub struct Reliability {
    enabled: bool,
    lanes: usize,
    /// Next sequence number per `(dst, lane)`, flattened.
    next_seq: Vec<AtomicU64>,
    /// Unacknowledged sequenced envelopes, keyed by `(dst, lane, seq)`.
    in_flight: Mutex<HashMap<(MachineId, u32, u64), InFlight>>,
    /// Request-lane dedup windows, one per source machine (shared by this
    /// machine's copiers).
    req_dedup: Vec<Mutex<DedupWindow>>,
    cfg: ReliabilityConfig,
    stats: Arc<MachineStats>,
}

impl Reliability {
    /// One machine's state under `config`, enabled exactly where
    /// [`Config::reliable`] says envelopes can be lost.
    pub fn new(config: &Config, stats: Arc<MachineStats>) -> Self {
        let machines = config.machines;
        let lanes = 1 + config.workers;
        Reliability {
            enabled: config.reliable(),
            lanes,
            next_seq: (0..machines * lanes).map(|_| AtomicU64::new(0)).collect(),
            in_flight: Mutex::new(HashMap::new()),
            req_dedup: (0..machines)
                .map(|_| Mutex::new(DedupWindow::default()))
                .collect(),
            cfg: config.reliability,
            stats,
        }
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn config(&self) -> &ReliabilityConfig {
        &self.cfg
    }

    /// Stamps a sequence number onto an outbound envelope and files a copy
    /// for retransmission. Called by the sending machine's poller for every
    /// reliable envelope.
    pub fn register(&self, env: &mut Envelope, now: Instant) {
        let lane = lane_of(env);
        let slot = env.dst as usize * self.lanes + lane as usize;
        let seq = self.next_seq[slot].fetch_add(1, Ordering::Relaxed) + 1;
        env.seq = seq;
        let rec = InFlight {
            env: env.clone(),
            due: now + Duration::from_millis(self.cfg.rto_base_ms),
            retries: 0,
        };
        self.in_flight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert((env.dst, lane, seq), rec);
    }

    /// Drops the retransmission copy for an acknowledged envelope.
    pub fn on_ack(&self, peer: MachineId, lane: u32, seq: u64) {
        self.in_flight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&(peer, lane, seq));
    }

    /// First-delivery test for a request-lane envelope from `src`.
    /// Returns `false` for replays (the caller still re-acks them — the
    /// original ack may itself have been lost).
    pub fn accept_request(&self, src: MachineId, seq: u64) -> bool {
        self.req_dedup[src as usize]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .accept(seq)
    }

    /// Collects every unacknowledged envelope whose retransmission timer
    /// expired, doubling its backoff. An envelope that exhausts
    /// `MAX_RETRIES` condemns its destination.
    pub fn due_retransmits(&self, now: Instant) -> Result<Vec<Envelope>, JobError> {
        let mut store = self.in_flight.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::new();
        for rec in store.values_mut() {
            if rec.due > now {
                continue;
            }
            if rec.retries >= MAX_RETRIES {
                return Err(JobError::MachineDown {
                    machine: rec.env.dst,
                });
            }
            rec.retries += 1;
            let backoff = self
                .cfg
                .rto_base_ms
                .saturating_mul(1u64 << rec.retries.min(32))
                .min(RTO_MAX_MS);
            rec.due = now + Duration::from_millis(backoff);
            out.push(rec.env.clone());
        }
        if !out.is_empty() {
            self.stats
                .retransmits
                .fetch_add(out.len() as u64, Ordering::Relaxed);
        }
        Ok(out)
    }

    /// Unacknowledged envelopes currently stored (test/diagnostic hook).
    pub fn in_flight_count(&self) -> usize {
        self.in_flight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// Empties the retransmission store. Called once the cluster aborts:
    /// the job is dead, re-driving its traffic would only churn.
    pub fn clear(&self) {
        self.in_flight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MsgKind;

    fn env(dst: MachineId, kind: MsgKind, worker: u16) -> Envelope {
        Envelope {
            src: 0,
            dst,
            kind,
            worker,
            side_id: 0,
            seq: 0,
            payload: Vec::new(),
        }
    }

    fn rel(machines: usize, workers: usize) -> Reliability {
        let config = Config {
            workers,
            strict_distributed: true,
            ..Config::test(machines)
        };
        Reliability::new(&config, Arc::new(MachineStats::default()))
    }

    #[test]
    fn dedup_window_accepts_once() {
        let mut w = DedupWindow::default();
        assert!(w.accept(1));
        assert!(!w.accept(1));
        assert!(w.accept(3)); // out of order: held above the floor
        assert!(w.accept(2));
        assert!(!w.accept(2));
        assert!(!w.accept(3));
        assert_eq!(w.cum, 3, "floor advanced over the contiguous prefix");
        assert!(w.seen.is_empty(), "no out-of-order residue");
        assert!(w.accept(4));
    }

    #[test]
    fn lanes_are_independent_streams() {
        let r = rel(2, 2);
        let mut a = env(1, MsgKind::Write, 0); // request lane
        let mut b = env(1, MsgKind::ReadResp, 0); // worker-0 lane
        let mut c = env(1, MsgKind::ReadResp, 1); // worker-1 lane
        let now = Instant::now();
        r.register(&mut a, now);
        r.register(&mut b, now);
        r.register(&mut c, now);
        assert_eq!((a.seq, b.seq, c.seq), (1, 1, 1));
        assert_eq!(lane_of(&a), 0);
        assert_eq!(lane_of(&b), 1);
        assert_eq!(lane_of(&c), 2);
        assert_eq!(r.in_flight_count(), 3);
    }

    #[test]
    fn ack_clears_the_store() {
        let r = rel(2, 1);
        let mut e = env(1, MsgKind::Write, 0);
        r.register(&mut e, Instant::now());
        assert_eq!(r.in_flight_count(), 1);
        r.on_ack(1, lane_of(&e), e.seq);
        assert_eq!(r.in_flight_count(), 0);
    }

    #[test]
    fn retransmit_after_rto_with_backoff() {
        let r = rel(2, 1);
        let mut e = env(1, MsgKind::Write, 0);
        let t0 = Instant::now();
        r.register(&mut e, t0);
        // Before the RTO: nothing due.
        assert!(r.due_retransmits(t0).unwrap().is_empty());
        // Just past the base RTO: one retransmit, same sequence number.
        let t1 = t0 + Duration::from_millis(r.config().rto_base_ms + 1);
        let due = r.due_retransmits(t1).unwrap();
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].seq, e.seq);
        // The backoff doubled: not due again at t1.
        assert!(r.due_retransmits(t1).unwrap().is_empty());
    }

    #[test]
    fn retry_exhaustion_condemns_destination() {
        let r = rel(2, 1);
        let mut e = env(1, MsgKind::Write, 0);
        let t0 = Instant::now();
        r.register(&mut e, t0);
        let mut t = t0 + Duration::from_secs(3600);
        for _ in 0..MAX_RETRIES {
            assert_eq!(r.due_retransmits(t).unwrap().len(), 1);
            t += Duration::from_secs(3600);
        }
        assert!(matches!(
            r.due_retransmits(t),
            Err(JobError::MachineDown { machine: 1 })
        ));
    }

    #[test]
    fn request_dedup_per_source() {
        let r = rel(3, 1);
        assert!(r.accept_request(1, 1));
        assert!(!r.accept_request(1, 1));
        assert!(r.accept_request(2, 1), "sources have independent windows");
    }
}
