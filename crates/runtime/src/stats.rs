//! Counters and timings: traffic accounting (Figure 6a, Figure 8) and
//! per-worker busy/idle breakdowns (Figure 6c).
//!
//! [`MachineStats`] is owned by the machine's
//! [`Telemetry`](crate::telemetry::Telemetry) registry; the direct fields
//! on `MachineState`/`WorkerComm` are clones of that same `Arc`. Unlike the
//! registry's histograms and tracers, these counters are always live.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Traffic and work counters for one machine. All counters are cumulative
/// over the machine's lifetime; the harness snapshots before/after a run
/// and subtracts.
#[derive(Debug, Default)]
pub struct MachineStats {
    /// Envelopes sent by this machine (all kinds).
    pub msgs_sent: AtomicU64,
    /// Payload bytes sent by this machine.
    pub bytes_sent: AtomicU64,
    /// Header bytes sent (fixed per envelope; kept separate so "utilized"
    /// vs "effective" bandwidth can be reported as in Figure 8a).
    pub header_bytes_sent: AtomicU64,
    /// Remote read request entries put on the wire. Reads deduplicated by
    /// in-flight combining count under `combined_read_hits` instead, so
    /// logical reads = `read_entries + combined_read_hits`.
    pub read_entries: AtomicU64,
    /// Remote write (reduction) entries issued.
    pub write_entries: AtomicU64,
    /// Ghost synchronization entries (pre-copy + post-reduce).
    pub ghost_entries: AtomicU64,
    /// RMI invocations issued.
    pub rmi_entries: AtomicU64,
    /// Envelopes processed by this machine's copiers.
    pub msgs_processed: AtomicU64,
    /// Times a sender found the buffer pool empty (back-pressure events).
    pub pool_exhausted: AtomicU64,
    /// Reads satisfied locally (same machine or ghost copy) without any
    /// message.
    pub local_reads: AtomicU64,
    /// Writes applied locally without any message.
    pub local_writes: AtomicU64,
    /// Envelopes retransmitted after an acknowledgement timeout
    /// (reliability protocol).
    pub retransmits: AtomicU64,
    /// Duplicate envelopes suppressed by receive-side sequence windows.
    pub dup_suppressed: AtomicU64,
    /// Acknowledgement envelopes sent.
    pub acks_sent: AtomicU64,
    /// Buffered/in-flight entries failed by an abort sweep instead of being
    /// completed (their `read_done` continuations never ran).
    pub failed_entries: AtomicU64,
    /// Remote reads satisfied by piggybacking on an identical in-flight
    /// request entry instead of a new wire entry (read combining).
    pub combined_read_hits: AtomicU64,
    /// Barrier-consistent snapshots this machine contributed a shard to.
    pub checkpoints_taken: AtomicU64,
    /// Payload bytes this machine snapshotted into its checkpoint store.
    pub checkpoint_bytes: AtomicU64,
    /// Checkpoint restores applied to this machine's property columns.
    pub restores_applied: AtomicU64,
    /// Jobs the serving layer admitted and dispatched onto the cluster.
    pub jobs_admitted: AtomicU64,
    /// Jobs the serving layer rejected (full queue or admission denial).
    pub jobs_rejected: AtomicU64,
    /// Jobs cancelled (explicit cancel or session close).
    pub jobs_cancelled: AtomicU64,
    /// Jobs that missed their deadline (queued or mid-run).
    pub jobs_deadline_missed: AtomicU64,
    /// Checkpoint shard saves lost by injected storage faults.
    pub ckpt_shards_lost: AtomicU64,
    /// Checkpoint shard saves corrupted by injected storage faults.
    pub ckpt_shards_corrupted: AtomicU64,
    /// Checkpoint shard saves delayed into the store's write-behind slot.
    pub ckpt_shards_delayed: AtomicU64,
    /// Restores that fell back past a corrupt/incomplete checkpoint to an
    /// older retained ring entry.
    pub checkpoint_fallbacks: AtomicU64,
    /// Recoveries that found no restorable checkpoint and restarted the job
    /// from iteration zero.
    pub cold_restarts: AtomicU64,
    /// Machines quarantined by the flap detector after repeated watchdog
    /// trips.
    pub machines_quarantined: AtomicU64,
    /// Retries refused because the server-wide retry budget was dry.
    pub retry_budget_exhausted: AtomicU64,
    /// Times the brownout gate closed the batch lane under overload.
    pub brownout_sheds: AtomicU64,
    /// Times the brownout gate re-opened the batch lane after occupancy
    /// fell below the hysteresis threshold.
    pub brownout_reopens: AtomicU64,
}

/// A point-in-time copy of [`MachineStats`], subtractable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub msgs_sent: u64,
    pub bytes_sent: u64,
    pub header_bytes_sent: u64,
    pub read_entries: u64,
    pub write_entries: u64,
    pub ghost_entries: u64,
    pub rmi_entries: u64,
    pub msgs_processed: u64,
    pub pool_exhausted: u64,
    pub local_reads: u64,
    pub local_writes: u64,
    pub retransmits: u64,
    pub dup_suppressed: u64,
    pub acks_sent: u64,
    pub failed_entries: u64,
    pub combined_read_hits: u64,
    pub checkpoints_taken: u64,
    pub checkpoint_bytes: u64,
    pub restores_applied: u64,
    pub jobs_admitted: u64,
    pub jobs_rejected: u64,
    pub jobs_cancelled: u64,
    pub jobs_deadline_missed: u64,
    pub ckpt_shards_lost: u64,
    pub ckpt_shards_corrupted: u64,
    pub ckpt_shards_delayed: u64,
    pub checkpoint_fallbacks: u64,
    pub cold_restarts: u64,
    pub machines_quarantined: u64,
    pub retry_budget_exhausted: u64,
    pub brownout_sheds: u64,
    pub brownout_reopens: u64,
}

impl MachineStats {
    /// Takes a snapshot of all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            msgs_sent: self.msgs_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            header_bytes_sent: self.header_bytes_sent.load(Ordering::Relaxed),
            read_entries: self.read_entries.load(Ordering::Relaxed),
            write_entries: self.write_entries.load(Ordering::Relaxed),
            ghost_entries: self.ghost_entries.load(Ordering::Relaxed),
            rmi_entries: self.rmi_entries.load(Ordering::Relaxed),
            msgs_processed: self.msgs_processed.load(Ordering::Relaxed),
            pool_exhausted: self.pool_exhausted.load(Ordering::Relaxed),
            local_reads: self.local_reads.load(Ordering::Relaxed),
            local_writes: self.local_writes.load(Ordering::Relaxed),
            retransmits: self.retransmits.load(Ordering::Relaxed),
            dup_suppressed: self.dup_suppressed.load(Ordering::Relaxed),
            acks_sent: self.acks_sent.load(Ordering::Relaxed),
            failed_entries: self.failed_entries.load(Ordering::Relaxed),
            combined_read_hits: self.combined_read_hits.load(Ordering::Relaxed),
            checkpoints_taken: self.checkpoints_taken.load(Ordering::Relaxed),
            checkpoint_bytes: self.checkpoint_bytes.load(Ordering::Relaxed),
            restores_applied: self.restores_applied.load(Ordering::Relaxed),
            jobs_admitted: self.jobs_admitted.load(Ordering::Relaxed),
            jobs_rejected: self.jobs_rejected.load(Ordering::Relaxed),
            jobs_cancelled: self.jobs_cancelled.load(Ordering::Relaxed),
            jobs_deadline_missed: self.jobs_deadline_missed.load(Ordering::Relaxed),
            ckpt_shards_lost: self.ckpt_shards_lost.load(Ordering::Relaxed),
            ckpt_shards_corrupted: self.ckpt_shards_corrupted.load(Ordering::Relaxed),
            ckpt_shards_delayed: self.ckpt_shards_delayed.load(Ordering::Relaxed),
            checkpoint_fallbacks: self.checkpoint_fallbacks.load(Ordering::Relaxed),
            cold_restarts: self.cold_restarts.load(Ordering::Relaxed),
            machines_quarantined: self.machines_quarantined.load(Ordering::Relaxed),
            retry_budget_exhausted: self.retry_budget_exhausted.load(Ordering::Relaxed),
            brownout_sheds: self.brownout_sheds.load(Ordering::Relaxed),
            brownout_reopens: self.brownout_reopens.load(Ordering::Relaxed),
        }
    }
}

impl std::ops::Sub for StatsSnapshot {
    type Output = StatsSnapshot;
    fn sub(self, rhs: StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            msgs_sent: self.msgs_sent - rhs.msgs_sent,
            bytes_sent: self.bytes_sent - rhs.bytes_sent,
            header_bytes_sent: self.header_bytes_sent - rhs.header_bytes_sent,
            read_entries: self.read_entries - rhs.read_entries,
            write_entries: self.write_entries - rhs.write_entries,
            ghost_entries: self.ghost_entries - rhs.ghost_entries,
            rmi_entries: self.rmi_entries - rhs.rmi_entries,
            msgs_processed: self.msgs_processed - rhs.msgs_processed,
            pool_exhausted: self.pool_exhausted - rhs.pool_exhausted,
            local_reads: self.local_reads - rhs.local_reads,
            local_writes: self.local_writes - rhs.local_writes,
            retransmits: self.retransmits - rhs.retransmits,
            dup_suppressed: self.dup_suppressed - rhs.dup_suppressed,
            acks_sent: self.acks_sent - rhs.acks_sent,
            failed_entries: self.failed_entries - rhs.failed_entries,
            combined_read_hits: self.combined_read_hits - rhs.combined_read_hits,
            checkpoints_taken: self.checkpoints_taken - rhs.checkpoints_taken,
            checkpoint_bytes: self.checkpoint_bytes - rhs.checkpoint_bytes,
            restores_applied: self.restores_applied - rhs.restores_applied,
            jobs_admitted: self.jobs_admitted - rhs.jobs_admitted,
            jobs_rejected: self.jobs_rejected - rhs.jobs_rejected,
            jobs_cancelled: self.jobs_cancelled - rhs.jobs_cancelled,
            jobs_deadline_missed: self.jobs_deadline_missed - rhs.jobs_deadline_missed,
            ckpt_shards_lost: self.ckpt_shards_lost - rhs.ckpt_shards_lost,
            ckpt_shards_corrupted: self.ckpt_shards_corrupted - rhs.ckpt_shards_corrupted,
            ckpt_shards_delayed: self.ckpt_shards_delayed - rhs.ckpt_shards_delayed,
            checkpoint_fallbacks: self.checkpoint_fallbacks - rhs.checkpoint_fallbacks,
            cold_restarts: self.cold_restarts - rhs.cold_restarts,
            machines_quarantined: self.machines_quarantined - rhs.machines_quarantined,
            retry_budget_exhausted: self.retry_budget_exhausted - rhs.retry_budget_exhausted,
            brownout_sheds: self.brownout_sheds - rhs.brownout_sheds,
            brownout_reopens: self.brownout_reopens - rhs.brownout_reopens,
        }
    }
}

impl std::ops::Add for StatsSnapshot {
    type Output = StatsSnapshot;
    fn add(self, rhs: StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            msgs_sent: self.msgs_sent + rhs.msgs_sent,
            bytes_sent: self.bytes_sent + rhs.bytes_sent,
            header_bytes_sent: self.header_bytes_sent + rhs.header_bytes_sent,
            read_entries: self.read_entries + rhs.read_entries,
            write_entries: self.write_entries + rhs.write_entries,
            ghost_entries: self.ghost_entries + rhs.ghost_entries,
            rmi_entries: self.rmi_entries + rhs.rmi_entries,
            msgs_processed: self.msgs_processed + rhs.msgs_processed,
            pool_exhausted: self.pool_exhausted + rhs.pool_exhausted,
            local_reads: self.local_reads + rhs.local_reads,
            local_writes: self.local_writes + rhs.local_writes,
            retransmits: self.retransmits + rhs.retransmits,
            dup_suppressed: self.dup_suppressed + rhs.dup_suppressed,
            acks_sent: self.acks_sent + rhs.acks_sent,
            failed_entries: self.failed_entries + rhs.failed_entries,
            combined_read_hits: self.combined_read_hits + rhs.combined_read_hits,
            checkpoints_taken: self.checkpoints_taken + rhs.checkpoints_taken,
            checkpoint_bytes: self.checkpoint_bytes + rhs.checkpoint_bytes,
            restores_applied: self.restores_applied + rhs.restores_applied,
            jobs_admitted: self.jobs_admitted + rhs.jobs_admitted,
            jobs_rejected: self.jobs_rejected + rhs.jobs_rejected,
            jobs_cancelled: self.jobs_cancelled + rhs.jobs_cancelled,
            jobs_deadline_missed: self.jobs_deadline_missed + rhs.jobs_deadline_missed,
            ckpt_shards_lost: self.ckpt_shards_lost + rhs.ckpt_shards_lost,
            ckpt_shards_corrupted: self.ckpt_shards_corrupted + rhs.ckpt_shards_corrupted,
            ckpt_shards_delayed: self.ckpt_shards_delayed + rhs.ckpt_shards_delayed,
            checkpoint_fallbacks: self.checkpoint_fallbacks + rhs.checkpoint_fallbacks,
            cold_restarts: self.cold_restarts + rhs.cold_restarts,
            machines_quarantined: self.machines_quarantined + rhs.machines_quarantined,
            retry_budget_exhausted: self.retry_budget_exhausted + rhs.retry_budget_exhausted,
            brownout_sheds: self.brownout_sheds + rhs.brownout_sheds,
            brownout_reopens: self.brownout_reopens + rhs.brownout_reopens,
        }
    }
}

/// Per-worker phase timing, in nanoseconds since the phase started, used
/// to reproduce the Figure 6c breakdown:
///
/// * *fully parallel* time = min over workers of `tasks_done_ns`,
/// * *intra-machine imbalance* = machine's last worker minus this machine's
///   first idle worker,
/// * *inter-machine imbalance* = global finish minus machine finish.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerTiming {
    /// When this worker exhausted its chunk queue (local tasks done).
    pub tasks_done_ns: u64,
    /// When this worker observed global completion and left the drain loop.
    pub drained_ns: u64,
}

/// Aggregated Figure-6c breakdown for one phase.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Breakdown {
    /// Seconds during which every worker on every machine was busy.
    pub fully_parallel: f64,
    /// Seconds attributable to waiting on workers of the *same* machine.
    pub intra_machine: f64,
    /// Seconds attributable to waiting on *other* machines.
    pub inter_machine: f64,
    /// Seconds spent draining in-flight responses *after* the last worker
    /// finished its tasks — termination-detection tail not attributable to
    /// load imbalance (buffered entries still crossing the fabric).
    pub drain: f64,
}

impl Breakdown {
    /// Derives the breakdown from per-machine, per-worker timings.
    ///
    /// `timings[m][w]` is worker `w` of the `m`-th machine hosted by this
    /// process — rows for machines living elsewhere must not be passed in
    /// (their zeros would count as workers that finished at time zero and
    /// dilute every mean). Every worker's wall
    /// time runs to the global finish; the portion after its own tasks
    /// finished but before its machine finished counts as intra-machine
    /// idle, and the remainder up to the global finish as inter-machine
    /// idle. Time a worker spends in the drain loop *past* the global task
    /// finish (waiting for in-flight entries to land, `drained_ns` beyond
    /// the last `tasks_done_ns`) is the fourth component. We report the
    /// mean over workers, so the four components sum to the phase wall
    /// time.
    pub fn from_timings(timings: &[Vec<WorkerTiming>]) -> Breakdown {
        let global_end_ns = timings
            .iter()
            .flat_map(|m| m.iter().map(|t| t.tasks_done_ns))
            .max()
            .unwrap_or(0);
        let mut busy = 0.0f64;
        let mut intra = 0.0f64;
        let mut inter = 0.0f64;
        let mut drain = 0.0f64;
        let mut count = 0usize;
        for m in timings {
            let machine_end = m.iter().map(|t| t.tasks_done_ns).max().unwrap_or(0);
            for t in m {
                busy += t.tasks_done_ns as f64;
                intra += machine_end.saturating_sub(t.tasks_done_ns) as f64;
                inter += global_end_ns.saturating_sub(machine_end) as f64;
                drain += t.drained_ns.saturating_sub(global_end_ns) as f64;
                count += 1;
            }
        }
        let norm = 1e-9 / count.max(1) as f64;
        Breakdown {
            fully_parallel: busy * norm,
            intra_machine: intra * norm,
            inter_machine: inter * norm,
            drain: drain * norm,
        }
    }

    /// Total accounted wall time.
    pub fn total(&self) -> f64 {
        self.fully_parallel + self.intra_machine + self.inter_machine + self.drain
    }
}

/// Formats a `Duration` as seconds with millisecond precision.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_subtraction() {
        let s = MachineStats::default();
        s.bytes_sent.store(100, Ordering::Relaxed);
        let a = s.snapshot();
        s.bytes_sent.store(150, Ordering::Relaxed);
        s.msgs_sent.store(3, Ordering::Relaxed);
        let b = s.snapshot();
        let d = b - a;
        assert_eq!(d.bytes_sent, 50);
        assert_eq!(d.msgs_sent, 3);
    }

    #[test]
    fn snapshot_addition() {
        let a = StatsSnapshot {
            bytes_sent: 10,
            ..Default::default()
        };
        let b = StatsSnapshot {
            bytes_sent: 5,
            msgs_sent: 2,
            ..Default::default()
        };
        let c = a + b;
        assert_eq!(c.bytes_sent, 15);
        assert_eq!(c.msgs_sent, 2);
    }

    #[test]
    fn breakdown_all_even() {
        // Two machines, two workers each, all finishing at 100ns: no
        // imbalance at all.
        let t = WorkerTiming {
            tasks_done_ns: 100,
            drained_ns: 100,
        };
        let timings = vec![vec![t, t], vec![t, t]];
        let b = Breakdown::from_timings(&timings);
        assert!((b.fully_parallel - 100e-9).abs() < 1e-12);
        assert_eq!(b.intra_machine, 0.0);
        assert_eq!(b.inter_machine, 0.0);
    }

    #[test]
    fn breakdown_intra_machine() {
        // One machine; one worker finishes at 100, the other at 50.
        let timings = vec![vec![
            WorkerTiming {
                tasks_done_ns: 100,
                drained_ns: 100,
            },
            WorkerTiming {
                tasks_done_ns: 50,
                drained_ns: 100,
            },
        ]];
        let b = Breakdown::from_timings(&timings);
        assert!(b.intra_machine > 0.0);
        assert_eq!(b.inter_machine, 0.0);
        assert!((b.total() - 100e-9).abs() < 1e-12);
    }

    #[test]
    fn breakdown_inter_machine() {
        // Machine 0 finishes at 40, machine 1 at 100.
        let timings = vec![
            vec![WorkerTiming {
                tasks_done_ns: 40,
                drained_ns: 100,
            }],
            vec![WorkerTiming {
                tasks_done_ns: 100,
                drained_ns: 100,
            }],
        ];
        let b = Breakdown::from_timings(&timings);
        assert!(b.inter_machine > 0.0);
        assert_eq!(b.intra_machine, 0.0);
        assert!((b.total() - 100e-9).abs() < 1e-12);
    }

    #[test]
    fn breakdown_drain_tail() {
        // Both workers finish tasks at 100 but keep draining until 130:
        // the 30ns tail is drain time, not imbalance.
        let t = WorkerTiming {
            tasks_done_ns: 100,
            drained_ns: 130,
        };
        let timings = vec![vec![t], vec![t]];
        let b = Breakdown::from_timings(&timings);
        assert!((b.fully_parallel - 100e-9).abs() < 1e-12);
        assert_eq!(b.intra_machine, 0.0);
        assert_eq!(b.inter_machine, 0.0);
        assert!((b.drain - 30e-9).abs() < 1e-12);
        assert!((b.total() - 130e-9).abs() < 1e-12);
    }

    #[test]
    fn breakdown_of_one_hosted_row_is_not_diluted() {
        // A rank of a two-machine job sees only its own workers.
        let t = WorkerTiming {
            tasks_done_ns: 100,
            drained_ns: 130,
        };
        let hosted = Breakdown::from_timings(&[vec![t]]);
        assert!((hosted.fully_parallel - 100e-9).abs() < 1e-12);
        assert_eq!(hosted.inter_machine, 0.0);
        assert!((hosted.drain - 30e-9).abs() < 1e-12);
        // What a row per *cluster* machine used to report for the same
        // rank: the peer's empty row halves compute and drain and books the
        // other half of compute as inter-machine wait, to the digit.
        let padded = Breakdown::from_timings(&[vec![WorkerTiming::default()], vec![t]]);
        assert_eq!(padded.fully_parallel, padded.inter_machine);
        assert!((padded.fully_parallel - 50e-9).abs() < 1e-12);
        assert!((padded.drain - 15e-9).abs() < 1e-12);
    }

    #[test]
    fn breakdown_empty() {
        let b = Breakdown::from_timings(&[]);
        assert_eq!(b.total(), 0.0);
    }
}
