//! Per-machine engine state: one instance of Figure 1 of the paper.

use crate::barrier::DistBarrier;
use crate::buffer::BufferPool;
use crate::config::Config;
use crate::fabric::MachineReceivers;
use crate::health::ClusterHealth;
use crate::ids::MachineId;
use crate::localgraph::LocalGraph;
use crate::message::{encode_term_stat, Envelope, MsgKind, TermStat, TERM_STAT_BYTES};
use crate::partition::Partitioning;
use crate::props::PropertyStore;
use crate::reliable::Reliability;
use crate::stats::MachineStats;
use crate::telemetry::Telemetry;
use crate::term::TermState;
use crossbeam::channel::{Receiver, Sender};
use std::sync::atomic::{AtomicI64, AtomicU64};
use std::sync::Arc;

/// Everything one simulated machine owns.
pub struct MachineState {
    /// This machine's id.
    pub id: MachineId,
    /// Cluster configuration (identical on every machine).
    pub config: Config,
    /// This machine's fragment of the distributed graph.
    pub graph: Arc<LocalGraph>,
    /// Column-oriented property storage (owned region + ghost slots).
    pub props: PropertyStore,
    /// The cluster-wide vertex partitioning (pivots shared by everyone).
    pub partition: Arc<Partitioning>,
    /// Send side of this machine's outgoing-traffic queue; the poller
    /// thread drains it into the fabric.
    pub outbox_tx: Sender<Envelope>,
    /// Receive side of the outbox (consumed by the poller thread only).
    pub outbox_rx: Receiver<Envelope>,
    /// Incoming request queue shared by this machine's copier threads.
    pub copier_rx: Receiver<Envelope>,
    /// Incoming response queues, one per worker.
    pub worker_rx: Vec<Receiver<Envelope>>,
    /// Pool for outgoing message payloads (back-pressure accounting).
    pub send_pool: Arc<BufferPool>,
    /// Telemetry registry: histograms, per-worker tracers, and the owner of
    /// this machine's [`MachineStats`].
    pub telemetry: Arc<Telemetry>,
    /// Traffic and work counters (a clone of `telemetry.stats()`, kept as a
    /// direct field because the hot paths touch it constantly).
    pub stats: Arc<MachineStats>,
    /// Cluster-global count of buffered-but-unconsumed entries; zero (with
    /// no tasks left) means a parallel region is complete (§3.2: "A
    /// particular job completes when the task list is empty and there are
    /// no unfinished remote requests").
    pub pending: Arc<AtomicI64>,
    /// Message-based barrier state (the Figure 5b measurement only).
    pub dist_barrier: Arc<DistBarrier>,
    /// Ghost values stored for the running job (§3.3's pre-copy): the
    /// `GhostSync` entries the copiers applied plus the owned values this
    /// machine's own workers sent. A job that reads `r` properties starts
    /// its chunks here once this reaches (mirror slots + values sent) ×
    /// `r`; the driver zeroes it before each job.
    pub ghosts_synced: AtomicU64,
    /// Cluster-shared liveness/abort state (reliability layer).
    pub health: Arc<ClusterHealth>,
    /// This machine's reliable-delivery state: sequence allocation,
    /// retransmit store, request-lane dedup windows.
    pub reliability: Arc<Reliability>,
    /// Distributed termination state (event-driven Mattern double wave),
    /// on under `strict_distributed` (forced by TCP). Inert otherwise: the
    /// in-process machines then share `pending`, which already answers
    /// "are there unfinished remote requests" exactly.
    pub term: Arc<TermState>,
}

impl MachineState {
    /// Assembles a machine from its pre-built parts.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: MachineId,
        config: Config,
        graph: Arc<LocalGraph>,
        partition: Arc<Partitioning>,
        receivers: MachineReceivers,
        outbox: (Sender<Envelope>, Receiver<Envelope>),
        pending: Arc<AtomicI64>,
        telemetry: Arc<Telemetry>,
        health: Arc<ClusterHealth>,
    ) -> Self {
        let props = PropertyStore::new(graph.num_local(), graph.num_ghosts());
        let send_pool = Arc::new(BufferPool::with_shards(
            config.send_buffers_per_machine,
            config.buffer_bytes,
            config.pool_shards,
        ));
        let dist_barrier = Arc::new(DistBarrier::new(config.workers, config.machines));
        let stats = telemetry.stats().clone();
        let reliability = Arc::new(Reliability::new(
            config.machines,
            config.workers,
            config.reliability,
            stats.clone(),
        ));
        MachineState {
            id,
            config: config.clone(),
            graph,
            props,
            partition,
            outbox_tx: outbox.0,
            outbox_rx: outbox.1,
            copier_rx: receivers.copier_rx,
            worker_rx: receivers.worker_rx,
            send_pool,
            telemetry,
            stats,
            pending,
            dist_barrier,
            ghosts_synced: AtomicU64::new(0),
            health,
            reliability,
            term: Arc::new(TermState::new(config.machines, config.strict_distributed)),
        }
    }

    /// Number of vertices this machine owns.
    pub fn num_local(&self) -> usize {
        self.graph.num_local()
    }

    /// Sends a termination report to the coordinator. The frame goes
    /// through the outbox like all other traffic, so the poller thread
    /// wakes for it at once.
    fn send_term_stat(&self, stat: Option<TermStat>) {
        let Some(stat) = stat else { return };
        let mut payload = Vec::with_capacity(TERM_STAT_BYTES);
        encode_term_stat(&mut payload, &stat);
        let _ = self.outbox_tx.send(Envelope {
            src: self.id,
            dst: 0,
            kind: MsgKind::TermStat,
            worker: 0,
            side_id: 0,
            seq: 0,
            payload,
        });
    }

    /// Reports this machine's termination state if [`TermState::report`]
    /// has something to say — the one call behind idle workers, copiers
    /// and (with `force`) the poller tick.
    pub fn report_term(&self, force: bool) {
        self.send_term_stat(self.term.report(force));
    }

    /// Answers a coordinator probe with a fresh sample.
    pub fn answer_term_probe(&self, token: u64, probe: u64) {
        self.send_term_stat(self.term.on_probe(token, probe));
    }

    /// Wave completion check for a worker whose local task list is empty:
    /// marks the phase locally done, reports a changed state to the
    /// coordinator, and returns whether the phase has been released.
    #[inline]
    pub fn term_poll(&self) -> bool {
        if self.term.released(self.term.current()) {
            return true;
        }
        self.term.mark_local_done(|| self.telemetry.now_ns());
        self.report_term(false);
        false
    }

    /// Retires `n` consumed entries from the termination wave (mirror of
    /// `pending.fetch_sub`; call only after the entries' effects are
    /// applied) and reports the new state if this machine is already idle.
    /// One not-taken branch when the wave is off.
    #[inline]
    pub fn term_consumed(&self, n: u64) {
        if self.term.enabled() {
            self.term.add_dec(n);
            self.report_term(false);
        }
    }
}

impl std::fmt::Debug for MachineState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MachineState")
            .field("id", &self.id)
            .field("num_local", &self.num_local())
            .field("num_ghosts", &self.graph.num_ghosts())
            .finish_non_exhaustive()
    }
}
