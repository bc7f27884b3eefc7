//! Cluster assembly, thread management, and the driver-side API.
//!
//! A [`Cluster`] instantiates the machines this process hosts (Figure 1:
//! "the same program is instantiated on each machine"), pre-populates
//! worker, copier, and poller threads ("a set of worker threads is
//! initialized by the Task Manager at system start up"), and lets the
//! driver run sequences of [`Phase`]s separated by cluster-wide barriers —
//! the synchronous stepwise execution model of §3.1.

use crate::barrier::CentralBarrier;
use crate::cancel::CancelToken;
use crate::checkpoint::{
    Checkpoint, CheckpointStore, JobProgress, MachineCheckpoint, PropMeta, PropShard, SaveOutcome,
};
use crate::config::{Config, TransportBackend};
use crate::copier;
use crate::fabric::{make_endpoints, Fabric, MachineEndpoints};
use crate::ghost::GhostTable;
use crate::health::{panic_message, ClusterHealth, JobError};
use crate::ids::MachineId;
use crate::jobctx::{JobCtx, JobExec, JobOutcome, PhaseSpan};
use crate::localgraph::LocalGraph;
use crate::machine::MachineState;
use crate::message::{Envelope, MsgKind};
use crate::partition::Partitioning;
use crate::phase::{DistBarrierPhase, JobState, Phase, WorkerEnv};
use crate::props::{PropId, PropValue, ReduceOp, TypeTag};
use crate::stats::StatsSnapshot;
use crate::tcp::{self, Membership, TcpOptions, TcpTransport};
use crate::telemetry::{export, EventKind, Telemetry};
use crate::transport::{Contribution, InMemoryTransport, Transport, WireCountersSnapshot};
use crate::worker::{CommTuning, WorkerComm};
use crossbeam::channel::{unbounded, RecvTimeoutError};
use parking_lot::{Condvar, Mutex};
use pgxd_graph::{Graph, NodeId};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Broadcast slot through which the driver hands phases to every worker.
struct PhaseControl {
    slot: Mutex<PhaseSlot>,
    workers_cv: Condvar,
    done: Mutex<u64>,
    done_cv: Condvar,
}

struct PhaseSlot {
    epoch: u64,
    phase: Option<Arc<dyn Phase>>,
    shutdown: bool,
}

impl PhaseControl {
    fn new() -> Self {
        PhaseControl {
            slot: Mutex::new(PhaseSlot {
                epoch: 0,
                phase: None,
                shutdown: false,
            }),
            workers_cv: Condvar::new(),
            done: Mutex::new(0),
            done_cv: Condvar::new(),
        }
    }
}

/// The distributed engine as one process sees it: the machines this
/// process hosts plus their threads, over a [`Transport`] backend.
///
/// The backend decides the deployment shape and nothing else does. The
/// in-memory switch ([`Cluster::load`]) hosts all `P` machines in this
/// process — the shape every test and most benchmarks use. The TCP backend
/// ([`Cluster::load_node`]) hosts one machine per OS process and every
/// process runs the same driver program in lockstep. Each driver operation
/// below has one body — loop over the hosted machines,
/// [exchange](Cluster::exchange) with the other processes, combine — and
/// with one process in the group the exchange is the identity.
pub struct Cluster {
    /// The machines hosted here, ascending and contiguous in machine id.
    machines: Vec<Arc<MachineState>>,
    endpoints: Vec<MachineEndpoints>,
    fabric: Arc<Fabric>,
    partition: Arc<Partitioning>,
    ghosts: GhostTable,
    config: Config,
    pending: Arc<AtomicI64>,
    health: Arc<ClusterHealth>,
    ctl: Arc<PhaseControl>,
    threads: Vec<JoinHandle<()>>,
    next_prop: u16,
    dist_epoch: u64,
    /// Per-machine durable checkpoint stores (index = machine id).
    stores: Vec<Arc<CheckpointStore>>,
    /// Driver-assembled cluster checkpoints that were *durably complete*
    /// (every machine's shard readable back from its store), newest first,
    /// bounded by `config.recovery.retain`.
    ckpt_ring: VecDeque<Arc<Checkpoint>>,
    ckpt_seq: u64,
    /// Phases run so far: the termination token, a job window's
    /// `epoch_start` and a checkpoint's `phase_epoch`.
    phases_run: usize,
    /// Driver-supplied name of each phase run so far, indexed by
    /// `epoch - 1`; resolves trace events back to phase names at export.
    /// Retained only while telemetry is on — nothing reads it otherwise.
    phase_labels: Vec<String>,
    /// The served job currently bracketed by
    /// [`Cluster::begin_job`]/[`Cluster::end_job`], if any.
    active_job: Option<ActiveJob>,
    /// Finished job executions for the Chrome-trace job lanes (likewise).
    job_spans: Vec<JobExec>,
}

/// Window state captured at [`Cluster::begin_job`]: baselines the deltas
/// [`Cluster::end_job`] computes.
struct ActiveJob {
    ctx: JobCtx,
    enqueue_ns: u64,
    dispatch_ns: u64,
    /// `phases_run` at dispatch: epochs above this belong to the job.
    epoch_start: usize,
    stats_before: StatsSnapshot,
}

impl Cluster {
    /// Loads `graph` into a simulated cluster: partitions it, selects
    /// ghost candidates, builds per-machine fragments (each with its mirror
    /// slots), and starts all threads.
    pub fn load(graph: &Graph, config: Config) -> Result<Cluster, String> {
        if config.transport.backend != TransportBackend::InMemory {
            return Err(
                "Cluster::load builds an in-process cluster; use Cluster::load_node \
                 for the TCP backend"
                    .into(),
            );
        }
        let health = Arc::new(ClusterHealth::new(config.machines));
        let transport = Arc::new(InMemoryTransport::new(config.machines));
        Self::assemble(graph, config, health, transport)
    }

    /// Loads `graph` as **one rank** of a real multi-process cluster: the
    /// TCP backend bootstraps membership (rank 0 coordinates the address
    /// exchange), the graph is partitioned identically on every rank, and
    /// only this rank's fragment plus its threads are instantiated.
    /// Requires `config.transport.backend == TransportBackend::Tcp` with
    /// `rank`/`coord_addr` set — see [`crate::tcp::bootstrap`].
    pub fn load_node(graph: &Graph, config: Config) -> Result<Cluster, String> {
        config.validate()?;
        let membership = tcp::bootstrap(&config, |_| {}).map_err(|e| e.to_string())?;
        Self::load_node_with(graph, config, membership)
    }

    /// [`Cluster::load_node`] with an already-bootstrapped [`Membership`]
    /// — for callers that bind the coordinator listener themselves so they
    /// can publish the chosen port before peers join.
    pub fn load_node_with(
        graph: &Graph,
        config: Config,
        membership: Membership,
    ) -> Result<Cluster, String> {
        if config.transport.backend != TransportBackend::Tcp {
            return Err("Cluster::load_node requires the TCP transport backend".into());
        }
        if membership.machines != config.machines {
            return Err(format!(
                "membership spans {} machines but the config declares {}",
                membership.machines, config.machines
            ));
        }
        let health = Arc::new(ClusterHealth::new(config.machines));
        let options = TcpOptions::from_config(&config);
        let transport =
            TcpTransport::new(membership, health.clone(), options).map_err(|e| e.to_string())?;
        Self::assemble(graph, config, health, Arc::new(transport))
    }

    /// Cluster assembly, the same for every backend: builds the machines
    /// `transport` says this process hosts, registers their queues with
    /// it, and spawns their threads.
    fn assemble(
        graph: &Graph,
        config: Config,
        health: Arc<ClusterHealth>,
        transport: Arc<dyn Transport>,
    ) -> Result<Cluster, String> {
        config.validate()?;
        let ghosts = GhostTable::build(graph, config.ghost_threshold);
        let p = config.machines;
        let partition = Arc::new(Partitioning::build(graph, p, config.partitioning));
        let pending = Arc::new(AtomicI64::new(0));
        let hosted = transport.hosted();
        // One set of queues per hosted machine; the transport feeds them,
        // from sends on the in-memory switch and from the sockets on TCP.
        let (endpoints, receivers) = make_endpoints(hosted.len(), config.workers);

        // All telemetry registries share one epoch Instant so their
        // timestamps land on a single comparable timeline.
        let epoch = Instant::now();
        let mut machines = Vec::with_capacity(hosted.len());
        for ((m, rx), ep) in hosted.zip(receivers).zip(&endpoints) {
            let m = m as MachineId;
            let local = Arc::new(LocalGraph::build(graph, &partition, &ghosts, m));
            machines.push(Arc::new(MachineState::new(
                m,
                config.clone(),
                local,
                partition.clone(),
                rx,
                unbounded(),
                pending.clone(),
                Telemetry::new(m, &config, epoch),
                health.clone(),
            )));
            transport
                .register_endpoint(m, ep.clone())
                .map_err(|e| e.to_string())?;
        }
        let fabric = Arc::new(Fabric::over(
            transport,
            machines.iter().map(|m| m.telemetry.clone()).collect(),
            config.fault,
        ));

        let ctl = Arc::new(PhaseControl::new());
        let barrier = Arc::new(CentralBarrier::new(machines.len() * config.workers));

        // The watchdog grace period starts at cluster birth, not epoch zero.
        health.reset_clocks();

        let mut threads = Vec::new();
        // Pollers: one per machine.
        for m in &machines {
            let m = m.clone();
            let fabric = fabric.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("pgxd-poller-{}", m.id))
                    .spawn(move || poller_loop(m, fabric))
                    .map_err(|e| e.to_string())?,
            );
        }
        // Copiers.
        for m in &machines {
            for c in 0..config.copiers {
                let m = m.clone();
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("pgxd-copier-{}-{}", m.id, c))
                        .spawn(move || copier::copier_loop(m))
                        .map_err(|e| e.to_string())?,
                );
            }
        }
        // Workers.
        for m in &machines {
            for w in 0..config.workers {
                let m = m.clone();
                let ctl = ctl.clone();
                let barrier = barrier.clone();
                let pending = pending.clone();
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("pgxd-worker-{}-{}", m.id, w))
                        .spawn(move || worker_loop(m, w, ctl, barrier, pending))
                        .map_err(|e| e.to_string())?,
                );
            }
        }

        let retain = config.recovery.retain;
        let storage_plan = config.storage_fault;
        Ok(Cluster {
            machines,
            endpoints,
            fabric,
            partition,
            ghosts,
            config,
            pending,
            health,
            ctl,
            threads,
            next_prop: 0,
            dist_epoch: 0,
            stores: (0..p)
                .map(|_| Arc::new(CheckpointStore::with_plan(retain, storage_plan)))
                .collect(),
            ckpt_ring: VecDeque::new(),
            ckpt_seq: 0,
            phases_run: 0,
            phase_labels: Vec::new(),
            active_job: None,
            job_spans: Vec::new(),
        })
    }

    /// The lowest machine id hosted here: 0 in-process (the driver owns
    /// every machine), the bootstrap-assigned rank on a TCP rank.
    pub fn rank(&self) -> MachineId {
        self.machines[0].id
    }

    /// Whether other processes host machines of this cluster too.
    pub fn is_multiprocess(&self) -> bool {
        self.machines.len() < self.config.machines
    }

    /// The hosted machine with id `m`, if this process hosts it.
    fn hosted_machine(&self, m: MachineId) -> Option<&Arc<MachineState>> {
        self.machines
            .get((m as usize).checked_sub(self.rank() as usize)?)
    }

    /// The backend's raw process-group allgather: every process contributes
    /// `local` and receives all contributions in process order. A
    /// collective — every process calls it in the same driver step; the
    /// identity when this process hosts every machine.
    pub fn node_allgather(&self, local: &[u8]) -> Result<Vec<Vec<u8>>, JobError> {
        self.fabric.transport().allgather(local)
    }

    /// Process-group barrier; a no-op in-process. Ranks cross it before
    /// teardown so no rank closes its sockets while a peer still runs a
    /// job.
    pub fn node_barrier(&self) -> Result<(), JobError> {
        self.fabric.transport().barrier()
    }

    /// The middle step of every driver collective: each process hands in
    /// what its hosted machines contribute and receives every process's
    /// contribution, in process order (which is machine order). With one
    /// process the value is handed through untouched; only a multi-process
    /// backend encodes it for [`Transport::allgather`].
    pub fn exchange<T: Contribution>(&self, local: T) -> Result<Vec<T>, JobError> {
        if !self.is_multiprocess() {
            return Ok(vec![local]);
        }
        let mut blob = Vec::new();
        local.encode(&mut blob);
        let parts = self.fabric.transport().allgather(&blob)?;
        parts
            .iter()
            .enumerate()
            .map(|(rank, part)| {
                T::decode(part).ok_or_else(|| {
                    JobError::Protocol(format!(
                        "rank {rank} published an undecodable driver contribution"
                    ))
                })
            })
            .collect()
    }

    /// Wire-repair telemetry from the transport backend: reconnects,
    /// injected faults, unexpected EOFs. `None` on the in-memory switch,
    /// which has no wire to repair.
    pub fn wire_counters(&self) -> Option<WireCountersSnapshot> {
        self.fabric.transport().wire_counters()
    }

    /// Abruptly severs the transport — sockets die with no goodbye
    /// handshakes, so peers observe exactly what a SIGKILL of this process
    /// would produce. Chaos/test hook; the cluster object survives (drop
    /// it to finish teardown).
    pub fn sever_transport(&self) {
        self.fabric.transport().sever();
    }

    /// The cluster configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Number of machines.
    pub fn num_machines(&self) -> usize {
        self.config.machines
    }

    /// Total vertices in the distributed graph.
    pub fn num_nodes(&self) -> usize {
        self.partition.num_nodes()
    }

    /// The shared partitioning.
    pub fn partition(&self) -> &Arc<Partitioning> {
        &self.partition
    }

    /// The ghost candidates (each machine's slots are its
    /// [`LocalGraph::mirrors`]).
    pub fn ghosts(&self) -> &GhostTable {
        &self.ghosts
    }

    /// Machine `m`'s state (driver-side sequential access between jobs).
    pub fn machine(&self, m: usize) -> &Arc<MachineState> {
        &self.machines[m]
    }

    /// All machines.
    pub fn machines(&self) -> &[Arc<MachineState>] {
        &self.machines
    }

    /// The interconnect (for traffic statistics).
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// The cluster-global pending-entry counter (this process's share in
    /// multi-process mode).
    pub fn pending(&self) -> &Arc<AtomicI64> {
        &self.pending
    }

    /// Number of phase work units this *process* contributes, one per
    /// worker: what a main phase adds to its chunks, and what a phase whose
    /// workers each retire once passes as `outstanding`. Equals
    /// `machines × workers` in-process and plain `workers` on a rank of a
    /// multi-process cluster.
    pub fn phase_units(&self) -> usize {
        self.machines.len() * self.config.workers
    }

    /// Builds a job-completion tracker for the machines hosted here:
    /// `outstanding` counts *their* work units (chunks, and one per worker:
    /// [`Cluster::phase_units`]). Each worker completes
    /// the phase through its own machine — the shared `pending` counter by
    /// default, the termination wave under `strict_distributed`.
    pub fn job_state(&self, outstanding: usize, cancel: CancelToken) -> Arc<JobState> {
        let first = self.machines[0].id as usize;
        JobState::for_hosted(
            outstanding,
            first..first + self.machines.len(),
            self.config.workers,
            cancel,
        )
    }

    /// The shared liveness/abort state.
    pub fn health(&self) -> &Arc<ClusterHealth> {
        &self.health
    }

    /// Sum of all machines' traffic counters (buffer-pool back-pressure
    /// events are folded in from the pools).
    pub fn total_stats(&self) -> StatsSnapshot {
        let mut total = self
            .machines
            .iter()
            .map(|m| m.stats.snapshot())
            .fold(StatsSnapshot::default(), |a, b| a + b);
        total.pool_exhausted += self
            .machines
            .iter()
            .map(|m| m.send_pool.exhausted_events())
            .sum::<u64>();
        total
    }

    // -----------------------------------------------------------------
    // Properties (driver side)
    // -----------------------------------------------------------------

    /// Registers a typed node property on every machine and returns its id.
    pub fn add_prop<T: PropValue>(&mut self, name: &str, default: T) -> PropId {
        self.add_prop_raw(name, T::TAG, default.to_bits())
    }

    /// Registers a property from raw parts.
    pub fn add_prop_raw(&mut self, name: &str, tag: TypeTag, default_bits: u64) -> PropId {
        let id = PropId(self.next_prop);
        self.next_prop = self
            .next_prop
            .checked_add(1)
            .expect("property ids exhausted");
        for m in &self.machines {
            m.props.register_at(id, name, tag, default_bits);
        }
        id
    }

    /// Drops a property on every machine. Ids are never reused.
    pub fn drop_prop(&mut self, id: PropId) {
        for m in &self.machines {
            m.props.drop_prop(id);
        }
    }

    /// Reads a property value of a global vertex (driver-side). A
    /// collective when other processes host machines: every process calls
    /// it in the same driver step, the owner's process contributes the
    /// value and everyone receives it.
    pub fn get<T: PropValue>(&self, id: PropId, v: NodeId) -> T {
        let owner = self.partition.owner(v);
        let off = (v - self.partition.start(owner)) as usize;
        let local = self
            .hosted_machine(owner)
            .map(|m| m.props.column(id).load_bits(off));
        match self.exchange_bits(local.into_iter().collect()).first() {
            Some(&bits) => T::from_bits(bits),
            // A dead peer must not panic the driver: the error is already
            // on cluster health (the recovery driver's signal), and the
            // aborted run never uses this placeholder.
            None => {
                self.health.abort(JobError::Protocol(format!(
                    "owner rank {owner} published no get() value"
                )));
                T::from_bits(0)
            }
        }
    }

    /// Writes a property value of a global vertex (driver-side; only legal
    /// between parallel regions). Every process calls it, only the one
    /// hosting the owner applies it.
    pub fn set<T: PropValue>(&self, id: PropId, v: NodeId, value: T) {
        let owner = self.partition.owner(v);
        let off = (v - self.partition.start(owner)) as usize;
        if let Some(m) = self.hosted_machine(owner) {
            m.props.column(id).set(off, value);
        }
    }

    /// Fills a property (owned cells and ghost slots) on every machine.
    pub fn fill<T: PropValue>(&self, id: PropId, value: T) {
        for m in &self.machines {
            m.props.column(id).fill(value.to_bits());
        }
    }

    /// [`Cluster::exchange`] for raw property bits, concatenated in process
    /// order. An abort mid-collective surfaces through health and yields a
    /// short vector that is never consumed — every caller checks for the
    /// cluster error before trusting results.
    fn exchange_bits(&self, local: Vec<u64>) -> Vec<u64> {
        match self.exchange(local) {
            Ok(parts) => {
                let mut parts = parts.into_iter();
                let mut all = parts.next().unwrap_or_default();
                parts.for_each(|part| all.extend(part));
                all
            }
            Err(e) => {
                self.health.abort(e);
                Vec::new()
            }
        }
    }

    /// All owned cells of `id` as raw bits in global vertex order: the
    /// hosted machines' columns, exchanged. Process order *is* global
    /// order because partitions are contiguous and ascending.
    fn gather_bits(&self, id: PropId) -> Vec<u64> {
        let hosted_nodes = self.machines.iter().map(|m| m.num_local()).sum();
        let mut local = Vec::with_capacity(hosted_nodes);
        for m in &self.machines {
            let col = m.props.column(id);
            local.extend((0..m.num_local()).map(|i| col.load_bits(i)));
        }
        self.exchange_bits(local)
    }

    /// Gathers a property into a `Vec` indexed by global vertex id. Every
    /// process calls it and every process receives the full vector.
    pub fn gather<T: PropValue>(&self, id: PropId) -> Vec<T> {
        self.gather_bits(id).into_iter().map(T::from_bits).collect()
    }

    /// Reduces a property over all owned cells (driver-side sequential
    /// region helper, e.g. convergence checks). A collective, like
    /// [`Cluster::gather`], that exchanges one partial per machine instead
    /// of the column: each hosted machine folds its owned cells in vertex
    /// order, and every process folds the partials in machine order. So
    /// the result is bit-identical across backends and ranks at a given
    /// machine count; an f64 `Sum` at another machine count may differ in
    /// its last bits.
    pub fn reduce<T: PropValue>(&self, id: PropId, op: ReduceOp) -> T {
        let fold = |acc: Option<u64>, bits: u64| {
            Some(acc.map_or(bits, |a| crate::props::reduce_bits(T::TAG, op, a, bits)))
        };
        // `(present, bits)` per hosted machine: a machine without vertices
        // has no partial.
        let mut local = Vec::with_capacity(2 * self.machines.len());
        for m in &self.machines {
            let col = m.props.column(id);
            let partial = (0..m.num_local())
                .map(|i| col.load_bits(i))
                .fold(None, fold);
            local.extend([partial.is_some() as u64, partial.unwrap_or(0)]);
        }
        let partials = self.exchange_bits(local);
        let present = partials.chunks_exact(2).filter(|p| p[0] != 0);
        let acc = present.map(|p| p[1]).fold(None, fold);
        T::from_bits(acc.unwrap_or_else(|| crate::props::bottom_bits(T::TAG, op)))
    }

    /// Counts owned vertices whose `bool` property is true (a collective
    /// that exchanges one count per process).
    pub fn count_true(&self, id: PropId) -> usize {
        let hosted: u64 = self
            .machines
            .iter()
            .map(|m| {
                let col = m.props.column(id);
                (0..m.num_local())
                    .filter(|&i| col.load_bits(i) != 0)
                    .count() as u64
            })
            .sum();
        self.exchange_bits(vec![hosted]).into_iter().sum::<u64>() as usize
    }

    // -----------------------------------------------------------------
    // Checkpoint / restore
    // -----------------------------------------------------------------

    /// Machine `m`'s checkpoint store.
    pub fn checkpoint_store(&self, m: usize) -> &Arc<CheckpointStore> {
        &self.stores[m]
    }

    /// The newest durably-complete checkpoint, if any. The recovery driver
    /// extracts this *before* dropping a failed engine — the checkpoint is
    /// plain copied memory, never a view into the dead cluster.
    pub fn last_checkpoint(&self) -> Option<Arc<Checkpoint>> {
        self.ckpt_ring.front().cloned()
    }

    /// The retained checkpoints, newest first. A corrupt newest entry is
    /// only discovered at restore-time verification; the older entries are
    /// what the recovery driver falls back to.
    pub fn checkpoint_ring(&self) -> Vec<Arc<Checkpoint>> {
        self.ckpt_ring.iter().cloned().collect()
    }

    /// Takes a barrier-consistent snapshot of every live property plus job
    /// progress. Legal only between `try_run_*` calls: the cluster is then
    /// quiescent (the pending-entry counter has drained to zero), so no
    /// in-flight read or write can straddle the copy — the trailing phase
    /// barrier *is* the consistency point. A collective: every process
    /// calls it in the same driver step.
    ///
    /// Each hosted machine's shard is written through its
    /// [`CheckpointStore`] (where storage faults may lose, corrupt, or
    /// delay it) and read back — only what a store *durably holds* for this
    /// sequence is exchanged, so every process assembles the same cluster
    /// checkpoint. A lost or still-delayed shard makes the sequence
    /// incomplete: it never enters the retention ring and the returned
    /// partial assembly is for inspection only. A corrupted shard does
    /// enter, and is caught by restore-time checksums.
    pub fn take_checkpoint(
        &mut self,
        iteration: u64,
        scalars: Vec<u64>,
    ) -> Result<Arc<Checkpoint>, JobError> {
        if let Some(err) = self.health.error() {
            return Err(err);
        }
        // On a rank of a multi-process cluster `pending` is only this
        // process's share: a mutation counts up on its sender and down on
        // the receiving rank (see `run_phase_inner`).
        debug_assert!(
            self.is_multiprocess() || self.pending.load(Ordering::SeqCst) == 0,
            "checkpoint taken while entries are in flight"
        );
        let t0 = Instant::now();
        let props: Vec<PropMeta> = self.machines[0]
            .props
            .live()
            .into_iter()
            .map(|(id, e)| PropMeta {
                id,
                name: e.name.clone(),
                tag: e.column.tag(),
                default_bits: e.default_bits,
            })
            .collect();
        self.ckpt_seq += 1;
        let seq = self.ckpt_seq;
        let mut durable = Vec::with_capacity(self.machines.len());
        for m in &self.machines {
            let shards = props
                .iter()
                .map(|meta| {
                    let col = m.props.column(meta.id);
                    let owned = (0..col.len_local()).map(|i| col.load_bits(i)).collect();
                    PropShard::new(meta.id, owned)
                })
                .collect();
            let mc = Arc::new(MachineCheckpoint {
                machine: m.id,
                start: self.partition.start(m.id),
                shards,
            });
            let bytes = mc.bytes() as u64;
            m.stats.checkpoints_taken.fetch_add(1, Ordering::Relaxed);
            m.stats.checkpoint_bytes.fetch_add(bytes, Ordering::Relaxed);
            m.telemetry.record_checkpoint_bytes(bytes);
            let store = &self.stores[m.id as usize];
            let fault = match store.save(seq, mc) {
                SaveOutcome::Stored => None,
                SaveOutcome::Lost => Some(&m.stats.ckpt_shards_lost),
                SaveOutcome::Corrupted => Some(&m.stats.ckpt_shards_corrupted),
                SaveOutcome::Delayed => Some(&m.stats.ckpt_shards_delayed),
            };
            if let Some(counter) = fault {
                counter.fetch_add(1, Ordering::Relaxed);
            }
            // Read-after-write through the fault plan.
            durable.extend(store.get(seq));
        }
        let machines: Vec<_> = self.exchange(durable)?.into_iter().flatten().collect();
        let ckpt = Arc::new(Checkpoint {
            seq,
            num_nodes: self.num_nodes(),
            progress: JobProgress {
                iteration,
                phase_epoch: self.phases_run as u64,
                scalars,
            },
            props,
            machines,
        });
        let telemetry = &self.machines[0].telemetry;
        telemetry.record_checkpoint_ns(t0.elapsed().as_nanos() as u64);
        telemetry.trace(0, EventKind::CheckpointTaken, ckpt.bytes() as u64);
        if ckpt.machines.len() == self.config.machines {
            self.ckpt_ring.push_front(ckpt.clone());
            self.ckpt_ring.truncate(self.config.recovery.retain.max(1));
        }
        Ok(ckpt)
    }

    /// Restores property state from `ckpt`, verifying every shard checksum
    /// first. Every checkpointed property must already be registered with
    /// the same id and type (the resuming algorithm re-runs its setup,
    /// which re-registers properties in the same order). A collective
    /// every process calls with the *same* checkpoint; no traffic is
    /// needed — `ckpt` already carries every machine's shards — so each
    /// process restores the machines it hosts.
    ///
    /// Each property's reassembled global column is re-scattered under
    /// *this* cluster's partitioning, so the snapshot's shape need not
    /// match — the degraded P−1 survivor cluster after a crash restores
    /// the same way. Ghost slots are left alone: the next job's ghost push
    /// or bottom-fill overwrites them before any read.
    ///
    /// Health clocks are reset on success so a recovered run does not
    /// immediately re-trip the crash watchdog.
    pub fn restore_checkpoint(&mut self, ckpt: &Checkpoint) -> Result<(), JobError> {
        if let Some(err) = self.health.error() {
            return Err(err);
        }
        ckpt.verify()?;
        if ckpt.num_nodes != self.num_nodes() {
            return Err(JobError::CheckpointCorrupt(format!(
                "checkpoint covers {} nodes but the cluster holds {}",
                ckpt.num_nodes,
                self.num_nodes()
            )));
        }
        for meta in &ckpt.props {
            for m in &self.machines {
                let col = m.props.try_column(meta.id).ok_or_else(|| {
                    JobError::CheckpointCorrupt(format!(
                        "property {:?} ({}) is not registered on machine {}",
                        meta.id, meta.name, m.id
                    ))
                })?;
                if col.tag() != meta.tag {
                    return Err(JobError::CheckpointCorrupt(format!(
                        "property {} changed type between snapshot and restore",
                        meta.name
                    )));
                }
            }
        }
        for meta in &ckpt.props {
            let global = ckpt.global_bits(meta.id)?;
            for m in &self.machines {
                let col = m.props.column(meta.id);
                let start = self.partition.start(m.id) as usize;
                for (i, &bits) in global[start..start + m.num_local()].iter().enumerate() {
                    col.store_bits(i, bits);
                }
            }
        }
        for m in &self.machines {
            m.stats.restores_applied.fetch_add(1, Ordering::Relaxed);
        }
        self.health.reset_clocks();
        Ok(())
    }

    /// Records a driver-side trace event (recovery lifecycle markers) on
    /// machine 0's worker-0 ring.
    pub fn trace_driver_event(&self, kind: EventKind, arg: u64) {
        if let Some(m0) = self.machines.first() {
            m0.telemetry.trace(0, kind, arg);
        }
    }

    // -----------------------------------------------------------------
    // Job-scoped attribution (serve layer)
    // -----------------------------------------------------------------

    /// Opens a per-job attribution window: the counter baseline is
    /// captured for the window delta. Called by the job dispatcher right
    /// before it runs the job body; jobs serialize on the dispatcher
    /// thread, so at most one window is open and its counter delta is the
    /// job's wire cost.
    pub fn begin_job(&mut self, ctx: JobCtx, enqueue_ns: u64) {
        let dispatch_ns = self
            .machines
            .first()
            .map(|m| m.telemetry.now_ns())
            .unwrap_or(0);
        self.active_job = Some(ActiveJob {
            ctx,
            enqueue_ns,
            dispatch_ns,
            epoch_start: self.phases_run,
            stats_before: self.total_stats(),
        });
    }

    /// Closes the attribution window opened by [`Cluster::begin_job`] and
    /// assembles the [`JobExec`]: the cluster-wide counter delta,
    /// tracer-derived phase/barrier spans, and recovery retries observed in
    /// the window.
    /// Engine-level compute/comm/drain seconds are filled in by the caller
    /// (the `pgxd` crate), which owns the per-phase timing breakdowns.
    pub fn end_job(&mut self, outcome: JobOutcome) -> Option<JobExec> {
        let aj = self.active_job.take()?;
        let done_ns = self
            .machines
            .first()
            .map(|m| m.telemetry.now_ns())
            .unwrap_or(0);
        let (phases, retry_ns) = self.scan_job_events(aj.epoch_start, aj.dispatch_ns, done_ns);
        Some(JobExec {
            ctx: aj.ctx,
            outcome,
            enqueue_ns: aj.enqueue_ns,
            dispatch_ns: aj.dispatch_ns,
            done_ns,
            traffic: self.total_stats() - aj.stats_before,
            retries: retry_ns.len() as u64,
            retry_ns,
            phases,
            compute_s: 0.0,
            comm_s: 0.0,
            drain_s: 0.0,
            checkpoint_s: 0.0,
            engine_jobs: 0,
        })
    }

    /// Appends a finished job execution to the trace export's job lanes.
    /// A no-op with telemetry off: a long-lived server must not grow per job.
    pub fn push_job_span(&mut self, exec: &JobExec) {
        if self.telemetry_enabled() {
            self.job_spans.push(exec.clone());
        }
    }

    /// Executions recorded via [`Cluster::push_job_span`], oldest first.
    pub fn job_spans(&self) -> &[JobExec] {
        &self.job_spans
    }

    /// Reconstructs the job's phase spans (and recovery-retry timestamps)
    /// from the worker tracer rings: for each epoch the job ran, the wall
    /// is earliest `PhaseStart` → latest `PhaseEnd` across all machines,
    /// and barrier residence is the mean per-worker `BarrierExit` −
    /// `BarrierEnter`. Phases whose events were evicted from a ring are
    /// reported from whatever survives; fully evicted epochs are skipped.
    fn scan_job_events(
        &self,
        epoch_start: usize,
        from_ns: u64,
        to_ns: u64,
    ) -> (Vec<PhaseSpan>, Vec<u64>) {
        if !self.telemetry_enabled() {
            return (Vec::new(), Vec::new()); // nothing traced, no label kept
        }
        let count = self.phases_run.saturating_sub(epoch_start);
        let mut start: Vec<Option<u64>> = vec![None; count];
        let mut end: Vec<Option<u64>> = vec![None; count];
        let mut barrier_sum = vec![0u64; count];
        let mut barrier_pairs = vec![0u64; count];
        let mut retry_ns = Vec::new();
        for m in &self.machines {
            let t = &m.telemetry;
            for w in 0..t.workers() {
                // Per-worker open barrier timestamps, indexed like `start`.
                let mut entered: Vec<Option<u64>> = vec![None; count];
                for e in t.worker_events(w) {
                    if e.kind == EventKind::RecoveryStart && e.ts_ns >= from_ns && e.ts_ns <= to_ns
                    {
                        retry_ns.push(e.ts_ns);
                        continue;
                    }
                    let idx = match (e.arg as usize).checked_sub(epoch_start + 1) {
                        Some(i) if i < count => i,
                        _ => continue,
                    };
                    match e.kind {
                        EventKind::PhaseStart => {
                            start[idx] = Some(start[idx].map_or(e.ts_ns, |s| s.min(e.ts_ns)));
                        }
                        EventKind::PhaseEnd => {
                            end[idx] = Some(end[idx].map_or(e.ts_ns, |s| s.max(e.ts_ns)));
                        }
                        EventKind::BarrierEnter => entered[idx] = Some(e.ts_ns),
                        EventKind::BarrierExit => {
                            if let Some(enter) = entered[idx].take() {
                                barrier_sum[idx] += e.ts_ns.saturating_sub(enter);
                                barrier_pairs[idx] += 1;
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        retry_ns.sort_unstable();
        retry_ns.dedup();
        let phases = (0..count)
            .filter_map(|i| {
                let (s, e) = (start[i]?, end[i]?);
                Some(PhaseSpan {
                    label: self.phase_labels[epoch_start + i].clone(),
                    epoch: (epoch_start + i + 1) as u64,
                    start_ns: s,
                    end_ns: e.max(s),
                    barrier_ns: barrier_sum[i].checked_div(barrier_pairs[i]).unwrap_or(0),
                })
            })
            .collect();
        (phases, retry_ns)
    }

    // -----------------------------------------------------------------
    // Phase execution
    // -----------------------------------------------------------------

    /// Runs one phase on every worker of every hosted machine and waits for
    /// the trailing process barrier. The workers leave the phase once it is
    /// complete — by the shared `pending` counter, or under
    /// `Config::strict_distributed` by the termination wave, which already
    /// proves every entry of the phase consumed cluster-wide — so no
    /// message barrier follows.
    ///
    /// Returns the recorded [`JobError`] if the cluster aborted during (or
    /// before) the phase. An aborted cluster is terminal — every
    /// subsequent call reports the same error without running anything.
    pub fn try_run_phase(&mut self, phase: Arc<dyn Phase>) -> Result<(), JobError> {
        self.try_run_labeled_phase("phase", phase)
    }

    /// [`Cluster::try_run_phase`] with a name for the phase; the label
    /// shows up in exported traces and reports.
    pub fn try_run_labeled_phase(
        &mut self,
        label: &str,
        phase: Arc<dyn Phase>,
    ) -> Result<(), JobError> {
        if let Some(err) = self.health.error() {
            return Err(err);
        }
        self.run_phase_inner(phase, label);
        self.reap_abort()
    }

    /// Converts a recorded abort into an error, resetting the pending
    /// counter: once envelopes were lost or abandoned, its accounting is
    /// unrecoverable and it must not poison the leak assertion.
    fn reap_abort(&mut self) -> Result<(), JobError> {
        match self.health.error() {
            Some(err) => {
                self.pending.store(0, Ordering::SeqCst);
                Err(err)
            }
            None => Ok(()),
        }
    }

    fn run_phase_inner(&mut self, phase: Arc<dyn Phase>, label: &str) {
        self.phases_run += 1;
        if self.telemetry_enabled() {
            self.phase_labels.push(label.to_string());
        }
        // With every machine hosted here, `pending` is the cluster-global
        // in-flight count and must be zero between phases. Otherwise it
        // only counts this process's share and remote requests may still land here while peers
        // drain — the termination counters own that accounting instead.
        debug_assert!(
            self.is_multiprocess() || self.pending.load(Ordering::SeqCst) == 0,
            "pending entries leaked from a previous phase"
        );
        let epoch = {
            let mut slot = self.ctl.slot.lock();
            slot.epoch += 1;
            // The phase epoch doubles as the distributed-termination token:
            // every rank runs the same driver program, so epoch `t` names
            // the same phase on every rank.
            for m in &self.machines {
                m.term.begin_phase(slot.epoch);
            }
            slot.phase = Some(phase);
            self.ctl.workers_cv.notify_all();
            slot.epoch
        };
        let mut done = self.ctl.done.lock();
        while *done < epoch {
            self.ctl.done_cv.wait(&mut done);
        }
    }

    /// Crosses the message-based distributed barrier once — a measurement
    /// (Figure 5b, the benchmark's `barrier.dist_us`), not part of any
    /// job's protocol.
    pub fn run_dist_barrier(&mut self) {
        let epoch = self.dist_epoch;
        self.dist_epoch += 1;
        self.run_phase_inner(Arc::new(DistBarrierPhase { epoch }), "dist_barrier");
    }

    // -----------------------------------------------------------------
    // Telemetry export
    // -----------------------------------------------------------------

    /// Whether histogram/tracer telemetry is being recorded.
    pub fn telemetry_enabled(&self) -> bool {
        self.machines
            .first()
            .map(|m| m.telemetry.enabled())
            .unwrap_or(false)
    }

    /// Labels of the phases run so far (index = epoch − 1; telemetry on only).
    pub fn phase_labels(&self) -> &[String] {
        &self.phase_labels
    }

    /// Per-machine telemetry registries.
    pub fn telemetries(&self) -> Vec<Arc<Telemetry>> {
        self.machines.iter().map(|m| m.telemetry.clone()).collect()
    }

    /// Renders the run so far as a Chrome `trace_event` JSON document
    /// (open in Perfetto or chrome://tracing). Call between phases — the
    /// tracers must be quiescent.
    pub fn trace_json(&self) -> String {
        export::chrome_trace_with_jobs(&self.telemetries(), &self.phase_labels, &self.job_spans)
            .to_pretty()
    }

    /// Renders the metrics report (stats, histograms, traffic matrix) as
    /// JSON, with `extra` driver-supplied top-level fields appended.
    pub fn report_json(&self, extra: Vec<(String, export::json::Value)>) -> String {
        export::metrics_report(&self.telemetries(), &self.phase_labels, extra).to_pretty()
    }

    /// Writes `trace.json` and `report.json` into `dir` (created if
    /// needed); returns their paths.
    pub fn export_telemetry(&self, dir: &Path) -> std::io::Result<(PathBuf, PathBuf)> {
        self.export_telemetry_with(dir, Vec::new())
    }

    /// [`Cluster::export_telemetry`] with extra report fields.
    pub fn export_telemetry_with(
        &self,
        dir: &Path,
        extra: Vec<(String, export::json::Value)>,
    ) -> std::io::Result<(PathBuf, PathBuf)> {
        std::fs::create_dir_all(dir)?;
        let trace_path = dir.join("trace.json");
        let report_path = dir.join("report.json");
        std::fs::write(&trace_path, self.trace_json())?;
        std::fs::write(&report_path, self.report_json(extra))?;
        Ok((trace_path, report_path))
    }

    fn shutdown(&mut self) {
        // Workers first: no more phases will run.
        {
            let mut slot = self.ctl.slot.lock();
            slot.shutdown = true;
            self.ctl.workers_cv.notify_all();
        }
        // Copiers: one shutdown envelope per copier thread, delivered
        // directly to the copier queues.
        for (m, ep) in self.endpoints.iter().enumerate() {
            for _ in 0..self.config.copiers {
                let _ = ep.copier_tx.send(Envelope {
                    src: m as MachineId,
                    dst: m as MachineId,
                    kind: MsgKind::Shutdown,
                    worker: 0,
                    side_id: 0,
                    seq: 0,
                    payload: Vec::new(),
                });
            }
        }
        // Pollers: shutdown sentinel through each outbox.
        for m in &self.machines {
            let _ = m.outbox_tx.send(Envelope {
                src: m.id,
                dst: m.id,
                kind: MsgKind::Shutdown,
                worker: 0,
                side_id: 0,
                seq: 0,
                payload: Vec::new(),
            });
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Transport last: the TCP backend closes its sockets and joins its
        // reader threads (a no-op on the in-memory switch). Our own threads
        // are already gone, so nothing local races the teardown.
        self.fabric.transport().shutdown();
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("machines", &self.config.machines)
            .field("workers", &self.config.workers)
            .field("copiers", &self.config.copiers)
            .field("nodes", &self.num_nodes())
            .field("ghosts", &self.ghosts.len())
            .finish()
    }
}

/// Poller thread: drains the machine's outbox into the fabric ("PGX.D
/// maintains a dedicated thread for traffic control, namely the poller
/// thread", §3.4). With the reliability protocol disabled this is a plain
/// drain; enabled, the poller also stamps sequence numbers, emits
/// heartbeats, sweeps the retransmission store, and runs the watchdog.
fn poller_loop(m: Arc<MachineState>, fabric: Arc<Fabric>) {
    if m.reliability.enabled() {
        reliable_poller_loop(&m, &fabric);
    } else {
        while let Ok(env) = m.outbox_rx.recv() {
            if env.kind == MsgKind::Shutdown && env.dst == m.id {
                break;
            }
            if let Err(err) = fabric.send(env) {
                m.health.abort(err);
            }
        }
    }
}

fn reliable_poller_loop(m: &MachineState, fabric: &Fabric) {
    let tick = Duration::from_millis(m.reliability.config().tick_ms);
    let watchdog_ms = m.reliability.config().watchdog_ms;
    let mut last_tick = Instant::now();
    loop {
        match m.outbox_rx.recv_timeout(tick) {
            Ok(mut env) => {
                if env.kind == MsgKind::Shutdown && env.dst == m.id {
                    return;
                }
                // Retransmissions re-enter through the fabric directly, so
                // anything in the outbox with seq != 0 cannot occur; fresh
                // reliable envelopes get their sequence number here.
                if env.kind.is_reliable() {
                    m.reliability.register(&mut env, Instant::now());
                }
                if let Err(err) = fabric.send(env) {
                    m.health.abort(err);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
        let now = Instant::now();
        if now.duration_since(last_tick) >= tick {
            last_tick = now;
            poller_tick(m, fabric, watchdog_ms);
        }
    }
}

/// One reliability maintenance tick: heartbeats, retransmit sweep,
/// watchdog. Skipped (and the retransmission store drained) once the
/// cluster has aborted — the job is dead, re-driving its traffic would
/// only churn.
fn poller_tick(m: &MachineState, fabric: &Fabric, watchdog_ms: u64) {
    if m.health.is_aborted() {
        m.reliability.clear();
        return;
    }
    // Heartbeats keep peers' watchdogs quiet on otherwise-idle links (and
    // advance the fault injector's virtual clock, so held envelopes are
    // eventually released).
    for dst in 0..m.config.machines as MachineId {
        if dst != m.id {
            let _ = fabric.send(Envelope {
                src: m.id,
                dst,
                kind: MsgKind::Heartbeat,
                worker: 0,
                side_id: 0,
                seq: 0,
                payload: Vec::new(),
            });
        }
    }
    // Termination wave, repair path: repeat this machine's
    // report even though nothing changed, in case the event-driven report,
    // a probe, its answer or the release was lost. A no-op unless the
    // termination protocol is enabled and an unreleased phase is locally
    // done; the frame rides the outbox this thread drains next.
    m.report_term(true);
    match m.reliability.due_retransmits(Instant::now()) {
        Ok(due) => {
            if !due.is_empty() {
                m.telemetry
                    .trace(0, EventKind::Retransmit, due.len() as u64);
                for env in due {
                    if let Err(err) = fabric.send(env) {
                        m.health.abort(err);
                        return;
                    }
                }
            }
        }
        Err(err) => {
            m.health.abort(err);
            m.reliability.clear();
            return;
        }
    }
    if let Some(peer) = m.health.stale_peer(m.id, watchdog_ms) {
        let first = m.health.abort(JobError::MachineDown { machine: peer });
        m.reliability.clear();
        if first {
            // Confirmed death: spread the verdict so every rank aborts now
            // instead of each burning its own full watchdog deadline. The
            // coordinator broadcasts to all; other ranks report to the
            // coordinator, whose copier re-broadcasts (copier.rs). Sent
            // unsequenced and best-effort — a lost Abort only costs a peer
            // its own watchdog wait.
            let mut payload = Vec::with_capacity(2);
            crate::message::encode_abort(&mut payload, peer);
            let targets: Vec<MachineId> = if m.id == 0 {
                (1..m.config.machines as MachineId).collect()
            } else {
                vec![0]
            };
            for dst in targets {
                if dst != peer {
                    let _ = fabric.send(Envelope {
                        src: m.id,
                        dst,
                        kind: MsgKind::Abort,
                        worker: 0,
                        side_id: 0,
                        seq: 0,
                        payload: payload.clone(),
                    });
                }
            }
        }
    }
}

/// Worker thread: waits for phases, executes them, and synchronizes at the
/// cluster barrier. The worker's [`WorkerComm`] persists across phases. A
/// phase that panics fails the job and still reaches the barrier.
fn worker_loop(
    m: Arc<MachineState>,
    worker_idx: usize,
    ctl: Arc<PhaseControl>,
    barrier: Arc<CentralBarrier>,
    pending: Arc<AtomicI64>,
) {
    let mut comm = WorkerComm::new(
        m.id,
        worker_idx as u16,
        m.config.machines,
        CommTuning {
            buffer_bytes: m.config.buffer_bytes,
            pool_shard: worker_idx,
        },
        m.worker_rx[worker_idx].clone(),
        m.outbox_tx.clone(),
        m.send_pool.clone(),
        pending,
        m.telemetry.clone(),
        m.health.clone(),
        m.reliability.enabled(),
    );
    if m.term.enabled() {
        comm.attach_term(m.term.clone());
    }
    let tele = m.telemetry.clone();
    let mut my_epoch = 0u64;
    loop {
        let phase = {
            let mut slot = ctl.slot.lock();
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.epoch > my_epoch {
                    my_epoch = slot.epoch;
                    break slot.phase.as_ref().expect("phase must be set").clone();
                }
                ctl.workers_cv.wait(&mut slot);
            }
        };
        tele.trace(worker_idx, EventKind::PhaseStart, my_epoch);
        let executed = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut env = WorkerEnv {
                machine: &m,
                worker_idx,
                comm: &mut comm,
            };
            phase.execute(&mut env);
        }));
        if let Err(payload) = executed {
            // A panicking task fails the job instead of stranding the
            // barrier: what the worker had in flight is dropped, the abort
            // sends every peer out of its drain loop, and this worker
            // still reaches the barrier below.
            comm.abort_in_flight();
            m.health.abort(JobError::Protocol(format!(
                "machine {} worker {worker_idx}: task panicked: {}",
                m.id,
                panic_message(&*payload)
            )));
        }
        tele.trace(worker_idx, EventKind::PhaseEnd, my_epoch);
        tele.trace(worker_idx, EventKind::BarrierEnter, my_epoch);
        if barrier.wait() {
            // Leader: tell the driver this phase is complete.
            let mut done = ctl.done.lock();
            *done = my_epoch;
            ctl.done_cv.notify_all();
        }
        tele.trace(worker_idx, EventKind::BarrierExit, my_epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::JobState;
    use pgxd_graph::generate;

    struct NoopPhase;
    impl Phase for NoopPhase {
        fn execute(&self, _env: &mut WorkerEnv<'_>) {}
    }

    /// A phase where every worker reduces +1 into vertex 0's property via
    /// the full remote-write path.
    struct PokePhase {
        prop: PropId,
        job: Arc<JobState>,
    }
    impl Phase for PokePhase {
        fn execute(&self, env: &mut WorkerEnv<'_>) {
            let owner = env.machine.partition.owner(0);
            if env.machine.id == owner {
                // Owner applies locally, like the Data Manager fast path.
                env.machine
                    .props
                    .column(self.prop)
                    .reduce_bits_atomic(0, ReduceOp::Sum, 1);
            } else {
                env.comm.push_mut(owner, self.prop, ReduceOp::Sum, 0, 1);
            }
            env.comm.flush();
            self.job.retire();
            crate::phase::drain_until_complete(env, &self.job, |_, _, _| unreachable!());
        }
    }

    fn ring_cluster(machines: usize) -> Cluster {
        let g = generate::ring(16);
        Cluster::load(&g, Config::test(machines)).unwrap()
    }

    #[test]
    fn cluster_starts_and_shuts_down() {
        let c = ring_cluster(2);
        assert_eq!(c.num_machines(), 2);
        assert_eq!(c.num_nodes(), 16);
        drop(c);
    }

    #[test]
    fn noop_phases_run() {
        let mut c = ring_cluster(3);
        for _ in 0..5 {
            c.try_run_phase(Arc::new(NoopPhase)).unwrap();
        }
    }

    #[test]
    fn prop_roundtrip_via_driver() {
        let mut c = ring_cluster(2);
        let p = c.add_prop::<f64>("x", 1.5);
        assert_eq!(c.get::<f64>(p, 0), 1.5);
        assert_eq!(c.get::<f64>(p, 15), 1.5);
        c.set(p, 9, 4.25);
        assert_eq!(c.get::<f64>(p, 9), 4.25);
        let g = c.gather::<f64>(p);
        assert_eq!(g.len(), 16);
        assert_eq!(g[9], 4.25);
        assert_eq!(g[0], 1.5);
    }

    #[test]
    fn reduce_over_machines() {
        let mut c = ring_cluster(4);
        let p = c.add_prop::<i64>("v", 1);
        c.set(p, 3, 10i64);
        assert_eq!(c.reduce::<i64>(p, ReduceOp::Sum), 25);
        assert_eq!(c.reduce::<i64>(p, ReduceOp::Max), 10);
    }

    #[test]
    fn remote_writes_reach_owner() {
        let mut c = ring_cluster(4);
        let p = c.add_prop::<i64>("cnt", 0);
        let workers_total = c.num_machines() * c.config().workers;
        let job = c.job_state(workers_total, CancelToken::never());
        c.try_run_phase(Arc::new(PokePhase { prop: p, job }))
            .unwrap();
        // Every worker contributed exactly +1.
        assert_eq!(c.get::<i64>(p, 0), workers_total as i64);
        assert_eq!(c.pending().load(Ordering::SeqCst), 0);
    }

    #[test]
    fn reliable_cluster_delivers_exactly_once() {
        // Reliability on (strict mode runs it), no faults:
        // sequencing/ack/dedup must be invisible.
        let g = generate::ring(16);
        let mut config = Config::test(3);
        config.strict_distributed = true;
        let mut c = Cluster::load(&g, config).unwrap();
        let p = c.add_prop::<i64>("cnt", 0);
        let workers_total = c.num_machines() * c.config().workers;
        let job = c.job_state(workers_total, CancelToken::never());
        c.try_run_phase(Arc::new(PokePhase { prop: p, job }))
            .unwrap();
        assert_eq!(c.get::<i64>(p, 0), workers_total as i64);
        assert!(
            c.total_stats().acks_sent > 0,
            "sequenced envelopes were acknowledged"
        );
        assert_eq!(c.pending().load(Ordering::SeqCst), 0);
    }

    #[test]
    fn lossy_fabric_still_delivers_exactly_once() {
        // 10% drop + 5% dup + 5% reorder: retransmission and dedup must
        // reconstruct exactly-once delivery, bit-identically.
        let g = generate::ring(16);
        let mut config = Config::test(4);
        config.fault = crate::config::FaultPlan::lossy(42, 100, 50, 50);
        let mut c = Cluster::load(&g, config).unwrap();
        let p = c.add_prop::<i64>("cnt", 0);
        let workers_total = c.num_machines() * c.config().workers;
        for _ in 0..3 {
            let job = c.job_state(workers_total, CancelToken::never());
            c.try_run_phase(Arc::new(PokePhase { prop: p, job }))
                .unwrap();
        }
        assert_eq!(
            c.get::<i64>(p, 0),
            3 * workers_total as i64,
            "every +1 applied exactly once despite drops and dups"
        );
        assert_eq!(c.pending().load(Ordering::SeqCst), 0);
    }

    #[test]
    fn aborted_cluster_is_terminal() {
        let mut c = ring_cluster(2);
        c.health()
            .abort(crate::health::JobError::MachineDown { machine: 1 });
        let err = c.try_run_phase(Arc::new(NoopPhase)).unwrap_err();
        assert_eq!(err, crate::health::JobError::MachineDown { machine: 1 });
        // Still terminal on the next attempt, and shutdown joins cleanly.
        assert!(c.try_run_phase(Arc::new(NoopPhase)).is_err());
    }

    #[test]
    fn dist_barrier_completes() {
        let mut c = ring_cluster(3);
        for _ in 0..4 {
            c.run_dist_barrier();
        }
    }
}
