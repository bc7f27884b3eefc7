//! Counters and timings: traffic accounting (Figure 6a, Figure 8) and
//! per-worker busy/idle breakdowns (Figure 6c).
//!
//! [`MachineStats`] is owned by the machine's
//! [`Telemetry`](crate::telemetry::Telemetry) registry; the direct fields
//! on `MachineState`/`WorkerComm` are clones of that same `Arc`. Unlike the
//! registry's histograms and tracers, these counters are always live.

use std::sync::atomic::{AtomicU64, Ordering};

/// Declares the counter list once and derives all that must stay in step
/// with it: the live [`MachineStats`], its [`StatsSnapshot`], the snapshot's
/// `+`/`-`, and the `(name, value)` listing the JSON export walks.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Traffic and work counters for one machine. All counters are
        /// cumulative over the machine's lifetime; the harness snapshots
        /// before/after a run and subtracts.
        #[derive(Debug, Default)]
        pub struct MachineStats {
            $($(#[$doc])* pub $name: AtomicU64,)*
        }

        /// A point-in-time copy of [`MachineStats`], subtractable.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl MachineStats {
            /// Takes a snapshot of all counters.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                }
            }
        }

        impl StatsSnapshot {
            /// Every counter as `(field name, value)`, in declaration order.
            pub(crate) fn counters(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)*]
            }
        }

        impl std::ops::Sub for StatsSnapshot {
            type Output = StatsSnapshot;
            fn sub(self, rhs: StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name - rhs.$name,)*
                }
            }
        }

        impl std::ops::Add for StatsSnapshot {
            type Output = StatsSnapshot;
            fn add(self, rhs: StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name + rhs.$name,)*
                }
            }
        }
    };
}

counters! {
    /// Envelopes sent by this machine (all kinds).
    msgs_sent,
    /// Payload bytes sent by this machine.
    bytes_sent,
    /// Header bytes sent (fixed per envelope; kept separate so "utilized"
    /// vs "effective" bandwidth can be reported as in Figure 8a).
    header_bytes_sent,
    /// Remote read request entries put on the wire. Reads deduplicated by
    /// in-flight combining count under `combined_read_hits` instead, so
    /// logical reads = `read_entries + combined_read_hits`.
    read_entries,
    /// Remote write (reduction) entries issued.
    write_entries,
    /// Ghost synchronization entries (pre-copy + post-reduce).
    ghost_entries,
    /// RMI invocations issued.
    rmi_entries,
    /// Envelopes processed by this machine's copiers.
    msgs_processed,
    /// Times a sender found the buffer pool empty (back-pressure events).
    pool_exhausted,
    /// Reads satisfied locally (same machine or ghost copy) without any
    /// message.
    local_reads,
    /// Writes applied locally without any message.
    local_writes,
    /// Envelopes retransmitted after an acknowledgement timeout
    /// (reliability protocol).
    retransmits,
    /// Duplicate envelopes suppressed by receive-side sequence windows.
    dup_suppressed,
    /// Acknowledgement envelopes sent.
    acks_sent,
    /// Buffered/in-flight entries failed by an abort sweep instead of being
    /// completed (their `read_done` continuations never ran).
    failed_entries,
    /// Remote reads satisfied by piggybacking on an identical in-flight
    /// request entry instead of a new wire entry (read combining).
    combined_read_hits,
    /// Barrier-consistent snapshots this machine contributed a shard to.
    checkpoints_taken,
    /// Payload bytes this machine snapshotted into its checkpoint store.
    checkpoint_bytes,
    /// Checkpoint restores applied to this machine's property columns.
    restores_applied,
    /// Jobs the serving layer admitted and dispatched onto the cluster.
    jobs_admitted,
    /// Jobs the serving layer rejected (full queue or admission denial).
    jobs_rejected,
    /// Jobs cancelled (explicit cancel or session close).
    jobs_cancelled,
    /// Jobs that missed their deadline (queued or mid-run).
    jobs_deadline_missed,
    /// Checkpoint shard saves lost by injected storage faults.
    ckpt_shards_lost,
    /// Checkpoint shard saves corrupted by injected storage faults.
    ckpt_shards_corrupted,
    /// Checkpoint shard saves delayed into the store's write-behind slot.
    ckpt_shards_delayed,
    /// Restores that fell back past a corrupt/incomplete checkpoint to an
    /// older retained ring entry.
    checkpoint_fallbacks,
    /// Recoveries that found no restorable checkpoint and restarted the job
    /// from iteration zero.
    cold_restarts,
    /// Machines quarantined by the flap detector after repeated watchdog
    /// trips.
    machines_quarantined,
    /// Retries refused because the server-wide retry budget was dry.
    retry_budget_exhausted,
    /// Times the brownout gate closed the batch lane under overload.
    brownout_sheds,
    /// Times the brownout gate re-opened the batch lane after occupancy
    /// fell below the hysteresis threshold.
    brownout_reopens,
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

    /// One key per counter, each carrying its own field's value: the
    /// snapshot is nothing but `u64` counters, so its size counts them.
    #[test]
    fn stats_json_has_exactly_one_key_per_counter() {
        use crate::telemetry::export::{json::Value, stats_json};
        let s = MachineStats::default();
        s.msgs_sent.store(1, Ordering::Relaxed);
        s.brownout_reopens.store(2, Ordering::Relaxed);
        let json = stats_json(&s.snapshot());
        let Value::Obj(fields) = &json else {
            panic!("stats_json must be an object");
        };
        let counters = std::mem::size_of::<StatsSnapshot>() / std::mem::size_of::<u64>();
        assert_eq!((counters, fields.len()), (32, 32));
        let keys: std::collections::BTreeSet<_> = fields.iter().map(|(k, _)| k).collect();
        assert_eq!(keys.len(), counters, "duplicate JSON key");
        assert_eq!(json.get("msgs_sent").and_then(Value::as_u64), Some(1));
        assert_eq!(
            json.get("brownout_reopens").and_then(Value::as_u64),
            Some(2)
        );
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
