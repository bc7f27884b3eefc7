//! Per-worker event tracing.
//!
//! Each worker thread owns one `Tracer`: a fixed-size power-of-two ring of
//! `(timestamp, packed kind|arg)` slots written with `Relaxed` atomic
//! stores. Recording when tracing is enabled is two stores and one
//! `fetch_add`; when disabled it is a single predictable branch. The ring
//! overwrites oldest entries on wraparound — the tail of a run is what
//! matters for post-mortem inspection, and a bounded ring means the hot
//! path never allocates.
//!
//! A tracer is single-writer (its worker) / quiescent-reader (export runs
//! after the phases finish), so relaxed ordering cannot tear an event pair
//! that anyone observes.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// What happened. Packed into the low 8 bits of a slot; the remaining 56
/// bits carry an event-specific argument.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A worker started executing a phase. `arg` = phase epoch.
    PhaseStart = 0,
    /// A worker finished executing a phase. `arg` = phase epoch.
    PhaseEnd = 1,
    /// A worker reached the end-of-phase barrier. `arg` = phase epoch.
    BarrierEnter = 2,
    /// A worker was released from the barrier. `arg` = phase epoch.
    BarrierExit = 3,
    /// A message buffer was sealed and handed to the fabric. `arg` = payload bytes.
    BufferFlush = 4,
    /// The send-buffer pool ran dry and fresh allocations were forced.
    /// `arg` = number of exhaustion events since the last one traced.
    PoolStall = 5,
    /// A worker began pushing ghost-node values. `arg` = nodes in its share.
    GhostPush = 6,
    /// A worker began pushing ghost reduction partials. `arg` = nodes in its share.
    GhostReduce = 7,
    /// The poller retransmitted unacknowledged envelopes. `arg` = count.
    Retransmit = 8,
    /// A duplicate envelope was suppressed. `arg` = its sequence number.
    DupDrop = 9,
    /// A worker failed its in-flight continuations after a cluster abort.
    /// `arg` = entries failed.
    AbortSweep = 10,
    /// A barrier-consistent checkpoint was taken. `arg` = payload bytes
    /// snapshotted cluster-wide.
    CheckpointTaken = 12,
    /// The recovery driver began a retry attempt (degraded rebuild +
    /// restore). `arg` = the attempt number (1 = first retry).
    RecoveryStart = 13,
    /// A retry attempt finished restoring state and resumed the job.
    /// `arg` = the iteration resumed from.
    RecoveryDone = 14,
    /// The job server accepted a submission into a scheduler lane.
    /// `arg` = the job id.
    JobEnqueue = 15,
    /// The job server dispatched a queued job onto the cluster.
    /// `arg` = the job id.
    JobDispatch = 16,
    /// A job was cancelled (explicitly, by deadline, or at session close).
    /// `arg` = the job id.
    JobCancel = 17,
    /// A dispatched job finished and released the cluster (successfully
    /// or with an error). `arg` = the job id.
    JobDone = 18,
    /// A restore skipped a corrupt or incomplete checkpoint and fell back
    /// to an older retained ring entry. `arg` = the sequence skipped.
    CheckpointFallback = 19,
    /// No retained checkpoint was restorable; the job restarted from
    /// iteration zero. `arg` = checkpoints tried before giving up.
    ColdRestart = 20,
    /// The flap detector quarantined a repeatedly-tripping machine and the
    /// driver degraded proactively. `arg` = the machine id.
    Quarantine = 21,
    /// The brownout gate closed the batch lane under overload.
    /// `arg` = queue occupancy at the shed decision.
    BrownoutShed = 22,
    /// The brownout gate re-opened the batch lane after occupancy fell
    /// below the hysteresis threshold. `arg` = occupancy at re-open.
    BrownoutReopen = 23,
}

impl EventKind {
    pub fn name(self) -> &'static str {
        match self {
            EventKind::PhaseStart => "phase_start",
            EventKind::PhaseEnd => "phase_end",
            EventKind::BarrierEnter => "barrier_enter",
            EventKind::BarrierExit => "barrier_exit",
            EventKind::BufferFlush => "flush",
            EventKind::PoolStall => "pool_stall",
            EventKind::GhostPush => "ghost_push",
            EventKind::GhostReduce => "ghost_reduce",
            EventKind::Retransmit => "retransmit",
            EventKind::DupDrop => "dup_drop",
            EventKind::AbortSweep => "abort_sweep",
            EventKind::CheckpointTaken => "checkpoint_taken",
            EventKind::RecoveryStart => "recovery_start",
            EventKind::RecoveryDone => "recovery_done",
            EventKind::JobEnqueue => "job_enqueue",
            EventKind::JobDispatch => "job_dispatch",
            EventKind::JobCancel => "job_cancel",
            EventKind::JobDone => "job_done",
            EventKind::CheckpointFallback => "checkpoint_fallback",
            EventKind::ColdRestart => "cold_restart",
            EventKind::Quarantine => "quarantine",
            EventKind::BrownoutShed => "brownout_shed",
            EventKind::BrownoutReopen => "brownout_reopen",
        }
    }

    pub fn from_u8(v: u8) -> Option<EventKind> {
        Some(match v {
            0 => EventKind::PhaseStart,
            1 => EventKind::PhaseEnd,
            2 => EventKind::BarrierEnter,
            3 => EventKind::BarrierExit,
            4 => EventKind::BufferFlush,
            5 => EventKind::PoolStall,
            6 => EventKind::GhostPush,
            7 => EventKind::GhostReduce,
            8 => EventKind::Retransmit,
            9 => EventKind::DupDrop,
            10 => EventKind::AbortSweep,
            12 => EventKind::CheckpointTaken,
            13 => EventKind::RecoveryStart,
            14 => EventKind::RecoveryDone,
            15 => EventKind::JobEnqueue,
            16 => EventKind::JobDispatch,
            17 => EventKind::JobCancel,
            18 => EventKind::JobDone,
            19 => EventKind::CheckpointFallback,
            20 => EventKind::ColdRestart,
            21 => EventKind::Quarantine,
            22 => EventKind::BrownoutShed,
            23 => EventKind::BrownoutReopen,
            _ => return None,
        })
    }
}

/// A decoded trace record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the cluster-wide epoch.
    pub ts_ns: u64,
    pub kind: EventKind,
    pub arg: u64,
}

struct Slot {
    ts: AtomicU64,
    /// `kind as u64 | (arg << 8)`.
    code: AtomicU64,
}

/// A fixed-capacity ring buffer of trace events.
pub struct Tracer {
    enabled: bool,
    mask: usize,
    slots: Vec<Slot>,
    /// Total events ever recorded; `head & mask` is the next write slot.
    head: AtomicUsize,
}

impl Tracer {
    /// `capacity` is rounded up to a power of two (min 16). A disabled
    /// tracer allocates no slots.
    pub fn new(capacity: usize, enabled: bool) -> Tracer {
        let cap = capacity.max(16).next_power_of_two();
        let slots = if enabled {
            (0..cap)
                .map(|_| Slot {
                    ts: AtomicU64::new(0),
                    code: AtomicU64::new(0),
                })
                .collect()
        } else {
            Vec::new()
        };
        Tracer {
            enabled,
            mask: cap - 1,
            slots,
            head: AtomicUsize::new(0),
        }
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records one event. One branch when disabled.
    #[inline]
    pub fn record(&self, ts_ns: u64, kind: EventKind, arg: u64) {
        if !self.enabled {
            return;
        }
        let i = self.head.fetch_add(1, Ordering::Relaxed) & self.mask;
        let slot = &self.slots[i];
        slot.ts.store(ts_ns, Ordering::Relaxed);
        slot.code.store(kind as u64 | (arg << 8), Ordering::Relaxed);
    }

    /// Events recorded over the tracer's lifetime (including overwritten ones).
    pub fn recorded(&self) -> usize {
        self.head.load(Ordering::Relaxed)
    }

    /// Events lost to ring wraparound.
    pub fn dropped(&self) -> usize {
        self.recorded().saturating_sub(self.slots.len())
    }

    /// Decodes the retained events, oldest first. Call only when the owning
    /// worker is quiescent (between phases or after shutdown).
    pub fn events(&self) -> Vec<TraceEvent> {
        let head = self.head.load(Ordering::Relaxed);
        let retained = head.min(self.slots.len());
        let mut out = Vec::with_capacity(retained);
        for seq in (head - retained)..head {
            let slot = &self.slots[seq & self.mask];
            let code = slot.code.load(Ordering::Relaxed);
            if let Some(kind) = EventKind::from_u8((code & 0xff) as u8) {
                out.push(TraceEvent {
                    ts_ns: slot.ts.load(Ordering::Relaxed),
                    kind,
                    arg: code >> 8,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let t = Tracer::new(64, false);
        t.record(1, EventKind::PhaseStart, 0);
        assert_eq!(t.recorded(), 0);
        assert!(t.events().is_empty());
        assert_eq!(t.capacity(), 0);
    }

    #[test]
    fn roundtrip_in_order() {
        let t = Tracer::new(16, true);
        t.record(10, EventKind::PhaseStart, 1);
        t.record(20, EventKind::BufferFlush, 4096);
        t.record(30, EventKind::PhaseEnd, 1);
        let ev = t.events();
        assert_eq!(
            ev,
            vec![
                TraceEvent {
                    ts_ns: 10,
                    kind: EventKind::PhaseStart,
                    arg: 1
                },
                TraceEvent {
                    ts_ns: 20,
                    kind: EventKind::BufferFlush,
                    arg: 4096
                },
                TraceEvent {
                    ts_ns: 30,
                    kind: EventKind::PhaseEnd,
                    arg: 1
                },
            ]
        );
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn wraparound_keeps_newest() {
        let t = Tracer::new(16, true);
        for i in 0..40u64 {
            t.record(i, EventKind::BufferFlush, i * 2);
        }
        assert_eq!(t.recorded(), 40);
        assert_eq!(t.dropped(), 24);
        let ev = t.events();
        assert_eq!(ev.len(), 16);
        // Oldest retained event is #24, newest is #39, in order.
        for (off, e) in ev.iter().enumerate() {
            let seq = 24 + off as u64;
            assert_eq!(e.ts_ns, seq);
            assert_eq!(e.arg, seq * 2);
        }
    }

    #[test]
    fn capacity_rounds_up() {
        let t = Tracer::new(17, true);
        assert_eq!(t.capacity(), 32);
        let t = Tracer::new(0, true);
        assert_eq!(t.capacity(), 16);
    }
}
