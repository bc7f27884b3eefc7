//! Engine-wide telemetry: metrics registry, per-worker event tracing, and
//! structured run reports.
//!
//! One [`Telemetry`] instance exists per machine. It owns that machine's
//! [`MachineStats`] counters (always live — they are plain relaxed atomics
//! the engine has always paid for) plus the optional instruments gated by
//! [`TelemetryConfig::enabled`](crate::config::TelemetryConfig):
//!
//! - log-scale [`Histogram`]s: remote-read round-trip latency, copier
//!   service time, message-buffer fill ratio at flush, side-structure
//!   occupancy, per-worker chunk-claim counts, and (termination wave) the
//!   wait from local completion to the termination release;
//! - per-destination byte counters (traffic matrix);
//! - one ring-buffer [`Tracer`] per worker recording timestamped phase,
//!   barrier, flush, stall, and ghost events.
//!
//! Every recording entry point starts with a single `enabled` branch, so a
//! run with telemetry off pays one predictable-not-taken branch per hook.
//!
//! Timestamps are nanoseconds since a cluster-wide epoch `Instant` that
//! [`Cluster::assemble`](crate::cluster::Cluster) hands to every machine,
//! so events from different machines land on one comparable timeline.
//! [`export`] turns a finished run into a JSON metrics report and a Chrome
//! `trace_event` file viewable in Perfetto.

pub mod export;
pub mod histogram;
pub mod tracer;

pub use histogram::{Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use tracer::{EventKind, TraceEvent, Tracer};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::config::Config;
use crate::stats::MachineStats;

/// Trace-ring slots per worker (the ring overwrites its oldest events on
/// overflow).
const RING_CAPACITY: usize = 4096;

/// Per-machine telemetry registry. See the module docs.
pub struct Telemetry {
    enabled: bool,
    machine: u16,
    epoch: Instant,
    stats: Arc<MachineStats>,
    read_rtt_ns: Histogram,
    copier_service_ns: Histogram,
    flush_fill_pct: Histogram,
    side_occupancy: Histogram,
    chunk_claims: Histogram,
    checkpoint_bytes: Histogram,
    checkpoint_ns: Histogram,
    queue_wait_ns: Histogram,
    term_release_wait_ns: Histogram,
    dest_bytes: Vec<AtomicU64>,
    tracers: Vec<Tracer>,
}

impl Telemetry {
    pub fn new(machine: u16, config: &Config, epoch: Instant) -> Arc<Telemetry> {
        let enabled = config.telemetry.enabled;
        Arc::new(Telemetry {
            enabled,
            machine,
            epoch,
            stats: Arc::new(MachineStats::default()),
            read_rtt_ns: Histogram::new(),
            copier_service_ns: Histogram::new(),
            flush_fill_pct: Histogram::new(),
            side_occupancy: Histogram::new(),
            chunk_claims: Histogram::new(),
            checkpoint_bytes: Histogram::new(),
            checkpoint_ns: Histogram::new(),
            queue_wait_ns: Histogram::new(),
            term_release_wait_ns: Histogram::new(),
            dest_bytes: if enabled {
                (0..config.machines).map(|_| AtomicU64::new(0)).collect()
            } else {
                Vec::new()
            },
            tracers: (0..config.workers)
                .map(|_| Tracer::new(RING_CAPACITY, enabled))
                .collect(),
        })
    }

    /// A standalone registry for unit tests and benches that build
    /// communication pieces without a full cluster.
    pub fn detached(machines: usize, enabled: bool) -> Arc<Telemetry> {
        let mut config = Config::test(machines);
        config.telemetry.enabled = enabled;
        Telemetry::new(0, &config, Instant::now())
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn machine(&self) -> u16 {
        self.machine
    }

    /// The machine's always-on counters; [`MachineStats`] lives here.
    pub fn stats(&self) -> &Arc<MachineStats> {
        &self.stats
    }

    /// Nanoseconds since the cluster-wide epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a trace event on `worker`'s ring. One branch when disabled.
    #[inline]
    pub fn trace(&self, worker: usize, kind: EventKind, arg: u64) {
        if !self.enabled {
            return;
        }
        let ts = self.now_ns();
        if let Some(t) = self.tracers.get(worker) {
            t.record(ts, kind, arg);
        }
    }

    #[inline]
    pub fn record_read_rtt(&self, ns: u64) {
        if self.enabled {
            self.read_rtt_ns.record(ns);
        }
    }

    #[inline]
    pub fn record_copier_service(&self, ns: u64) {
        if self.enabled {
            self.copier_service_ns.record(ns);
        }
    }

    /// `pct` is payload bytes × 100 / buffer capacity at seal time.
    #[inline]
    pub fn record_flush_fill(&self, pct: u64) {
        if self.enabled {
            self.flush_fill_pct.record(pct);
        }
    }

    /// Side-structure entries in flight when a read buffer seals.
    #[inline]
    pub fn record_side_occupancy(&self, entries: u64) {
        if self.enabled {
            self.side_occupancy.record(entries);
        }
    }

    /// Chunks one worker claimed from the shared queue during a phase.
    #[inline]
    pub fn record_chunk_claims(&self, chunks: u64) {
        if self.enabled {
            self.chunk_claims.record(chunks);
        }
    }

    /// Payload bytes this machine snapshotted in one checkpoint.
    #[inline]
    pub fn record_checkpoint_bytes(&self, bytes: u64) {
        if self.enabled {
            self.checkpoint_bytes.record(bytes);
        }
    }

    /// Wall time of one cluster-wide checkpoint, nanoseconds.
    #[inline]
    pub fn record_checkpoint_ns(&self, ns: u64) {
        if self.enabled {
            self.checkpoint_ns.record(ns);
        }
    }

    /// Time one job spent queued in the server before dispatch, nanoseconds.
    #[inline]
    pub fn record_queue_wait(&self, ns: u64) {
        if self.enabled {
            self.queue_wait_ns.record(ns);
        }
    }

    /// Termination wave: time from this machine's first
    /// observation that its task list for a phase is empty to the release
    /// of that phase arriving, nanoseconds. Once per phase per machine.
    #[inline]
    pub fn record_term_release_wait(&self, ns: u64) {
        if self.enabled {
            self.term_release_wait_ns.record(ns);
        }
    }

    /// Payload bytes sent from this machine to `dest`.
    #[inline]
    pub fn record_dest_bytes(&self, dest: usize, bytes: u64) {
        if !self.enabled {
            return;
        }
        if let Some(d) = self.dest_bytes.get(dest) {
            d.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    pub fn workers(&self) -> usize {
        self.tracers.len()
    }

    /// Decoded events for one worker, oldest first.
    pub fn worker_events(&self, worker: usize) -> Vec<TraceEvent> {
        self.tracers
            .get(worker)
            .map(|t| t.events())
            .unwrap_or_default()
    }

    /// `(recorded, dropped)` event totals across this machine's workers.
    pub fn trace_volume(&self) -> (u64, u64) {
        let recorded: usize = self.tracers.iter().map(|t| t.recorded()).sum();
        let dropped: usize = self.tracers.iter().map(|t| t.dropped()).sum();
        (recorded as u64, dropped as u64)
    }

    /// Ring-buffer overflow per worker tracer: events lost to eviction,
    /// oldest-first ordering. A nonzero entry means that worker's
    /// timeline in the trace export is incomplete.
    pub fn worker_dropped(&self) -> Vec<u64> {
        self.tracers.iter().map(|t| t.dropped() as u64).collect()
    }

    pub fn read_rtt_snapshot(&self) -> HistogramSnapshot {
        self.read_rtt_ns.snapshot()
    }

    pub fn copier_service_snapshot(&self) -> HistogramSnapshot {
        self.copier_service_ns.snapshot()
    }

    pub fn flush_fill_snapshot(&self) -> HistogramSnapshot {
        self.flush_fill_pct.snapshot()
    }

    pub fn side_occupancy_snapshot(&self) -> HistogramSnapshot {
        self.side_occupancy.snapshot()
    }

    pub fn chunk_claims_snapshot(&self) -> HistogramSnapshot {
        self.chunk_claims.snapshot()
    }

    pub fn checkpoint_bytes_snapshot(&self) -> HistogramSnapshot {
        self.checkpoint_bytes.snapshot()
    }

    pub fn checkpoint_ns_snapshot(&self) -> HistogramSnapshot {
        self.checkpoint_ns.snapshot()
    }

    pub fn queue_wait_snapshot(&self) -> HistogramSnapshot {
        self.queue_wait_ns.snapshot()
    }

    pub fn term_release_wait_snapshot(&self) -> HistogramSnapshot {
        self.term_release_wait_ns.snapshot()
    }

    pub fn dest_bytes_snapshot(&self) -> Vec<u64> {
        self.dest_bytes
            .iter()
            .map(|d| d.load(Ordering::Relaxed))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let t = Telemetry::detached(2, false);
        t.record_read_rtt(100);
        t.record_dest_bytes(1, 64);
        t.trace(0, EventKind::PhaseStart, 1);
        assert_eq!(t.read_rtt_snapshot().count(), 0);
        assert!(t.dest_bytes_snapshot().is_empty());
        assert_eq!(t.trace_volume(), (0, 0));
    }

    #[test]
    fn enabled_registry_records() {
        let t = Telemetry::detached(2, true);
        t.record_read_rtt(100);
        t.record_flush_fill(85);
        t.record_dest_bytes(1, 64);
        t.trace(0, EventKind::BufferFlush, 512);
        assert_eq!(t.read_rtt_snapshot().count(), 1);
        assert_eq!(t.flush_fill_snapshot().count(), 1);
        assert_eq!(t.dest_bytes_snapshot(), vec![0, 64]);
        let ev = t.worker_events(0);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].kind, EventKind::BufferFlush);
        assert_eq!(ev[0].arg, 512);
    }
}
