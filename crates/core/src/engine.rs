//! The driver-side engine facade (§4.2 top-level execution model).

use crate::jobphase::{EdgeJobPhase, JobCore, NodeJobPhase};
use crate::prop::Prop;
use crate::spec::JobSpec;
use crate::task::{Dir, EdgeTask, NodeTask};
use parking_lot::{Condvar, Mutex};
use pgxd_graph::{Graph, NodeId};
use pgxd_runtime::cancel::{CancelReason, CancelToken};
use pgxd_runtime::checkpoint::Checkpoint;
use pgxd_runtime::chunk::{make_chunks, node_target_from_edges, ChunkQueue};
use pgxd_runtime::config::{ChunkingMode, Config, ConfigBuilder, TransportConfig};
use pgxd_runtime::health::JobError;
use pgxd_runtime::jobctx::{JobCtx, JobExec, JobOutcome};
use pgxd_runtime::phase::Phase;
use pgxd_runtime::props::{bottom_bits, PropValue, ReduceOp};
use pgxd_runtime::stats::{Breakdown, StatsSnapshot};
use pgxd_runtime::Cluster;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Loads a graph under a finished [`Config`] and starts the engine threads:
/// the four ways an [`Engine`] comes to exist. Configuration itself has one
/// front door, [`ConfigBuilder`]; [`BuildEngine::engine`] goes from there to
/// a running engine in one call.
#[derive(Clone, Debug)]
pub struct EngineBuilder {
    config: Config,
}

/// The engine-building terminal of the one configuration builder.
pub trait BuildEngine {
    /// [`ConfigBuilder::build`], then [`EngineBuilder::build`]: validates
    /// the configuration, loads `graph` and starts the engine threads.
    fn engine(self, graph: &Graph) -> Result<Engine, String>;
}

impl BuildEngine for ConfigBuilder {
    fn engine(self, graph: &Graph) -> Result<Engine, String> {
        EngineBuilder::from_config(self.build()?).build(graph)
    }
}

impl EngineBuilder {
    /// Start from an explicit [`Config`].
    pub fn from_config(config: Config) -> Self {
        EngineBuilder { config }
    }

    /// Loads `graph` and starts the engine threads.
    pub fn build(self, graph: &Graph) -> Result<Engine, String> {
        Cluster::load(graph, self.config).map(Engine::over)
    }

    /// Builds **one rank** of a real multi-process cluster over the TCP
    /// backend: bootstraps membership, loads only the local fragment, and
    /// returns an engine whose driver API runs SPMD-collectively — every
    /// rank executes the same driver program in lockstep.
    pub fn build_node(self, graph: &Graph) -> Result<Engine, String> {
        self.build_rank(graph, |_| {})
    }

    /// [`Self::build_node`] for a rank 0 that binds an address nobody knows
    /// yet (a `:0` port, say): `announce` is handed the concrete address as
    /// soon as it is bound, so an OS process can print it and a
    /// thread-hosted loopback rank can wake the others
    /// ([`loopback_ranks`]). One bootstrap for both
    /// ([`pgxd_runtime::tcp::bootstrap`]).
    pub fn build_rank(self, graph: &Graph, announce: impl FnOnce(&str)) -> Result<Engine, String> {
        self.config.validate()?;
        let membership =
            pgxd_runtime::tcp::bootstrap(&self.config, announce).map_err(|e| e.to_string())?;
        self.build_node_with(graph, membership)
    }

    /// [`Self::build_node`] with an already-bootstrapped membership (for
    /// processes that bind the coordinator listener themselves to publish
    /// its ephemeral port).
    pub fn build_node_with(
        self,
        graph: &Graph,
        membership: pgxd_runtime::tcp::Membership,
    ) -> Result<Engine, String> {
        Cluster::load_node_with(graph, self.config, membership).map(Engine::over)
    }
}

/// One of the thread-hosted ranks of [`loopback_ranks`].
pub struct LoopbackRank<'a> {
    /// This thread's rank.
    pub rank: u16,
    /// Rank 0's coordinator address, once it is bound.
    coord: &'a (Mutex<Option<String>>, Condvar),
}

impl LoopbackRank<'_> {
    /// This rank's transport: rank 0 coordinates on an ephemeral port, every
    /// other rank waits here until rank 0 [announced](Self::announce) it.
    pub fn transport(&self) -> Result<TransportConfig, String> {
        let (slot, bound) = self.coord;
        let mut addr = slot.lock();
        while self.rank != 0 && addr.is_none() {
            if bound
                .wait_for(&mut addr, Duration::from_secs(30))
                .timed_out()
            {
                return Err("rank 0 never bound its coordinator".into());
            }
        }
        let coord = addr.as_deref().unwrap_or("127.0.0.1:0");
        Ok(TransportConfig::tcp(coord, self.rank))
    }

    /// Publishes rank 0's bound coordinator address to the other ranks —
    /// the `announce` of [`EngineBuilder::build_rank`].
    pub fn announce(&self, addr: &str) {
        *self.coord.0.lock() = Some(addr.to_string());
        self.coord.1.notify_all();
    }

    /// Builds this rank's engine: `config` over [`Self::transport`].
    pub fn engine(&self, config: ConfigBuilder, graph: &Graph) -> Result<Engine, String> {
        let config = config.transport(self.transport()?).build()?;
        EngineBuilder::from_config(config).build_rank(graph, |addr| self.announce(addr))
    }
}

/// Hosts the `machines` ranks of one TCP cluster on threads of this process
/// over loopback sockets — what `pgxd-node` does across OS processes, for
/// hermetic tests and probes. Every rank runs `body`, the same SPMD driver
/// program; the results come back in rank order. A rank that leaves while
/// the others still run should cross [`Cluster::node_barrier`] first.
pub fn loopback_ranks<T: Send>(
    machines: usize,
    body: impl Fn(LoopbackRank<'_>) -> T + Sync,
) -> Vec<T> {
    let coord = (Mutex::new(None), Condvar::new());
    std::thread::scope(|s| {
        let ranks: Vec<_> = (0..machines as u16)
            .map(|rank| {
                let (body, coord) = (&body, &coord);
                s.spawn(move || body(LoopbackRank { rank, coord }))
            })
            .collect();
        ranks
            .into_iter()
            .map(|t| t.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// What one job execution cost (the driver's window into Figures 6a/6c).
#[derive(Clone, Debug)]
pub struct JobReport {
    /// Wall time of the whole job: the driver's ghost-slot reset, the
    /// job-start barrier and the main phase.
    pub total: Duration,
    /// Wall time of the main phase only.
    pub main: Duration,
    /// Traffic generated by the job, cluster-wide.
    pub traffic: StatsSnapshot,
    /// Figure-6c style busy/idle breakdown of the main phase.
    pub breakdown: Breakdown,
}

/// Accumulates engine-level breakdowns while a served job's attribution
/// window is open: one served job may run many barrier-delimited engine
/// jobs (e.g. one per PageRank iteration), and the serve layer wants
/// their compute/comm/drain/checkpoint seconds summed.
#[derive(Default)]
struct JobAcc {
    compute_s: f64,
    comm_s: f64,
    drain_s: f64,
    checkpoint_s: f64,
    engine_jobs: u64,
}

/// The PGX.D engine: a loaded distributed graph plus its thread pools.
pub struct Engine {
    cluster: Cluster,
    last_timings: Vec<Vec<pgxd_runtime::stats::WorkerTiming>>,
    job_acc: Option<JobAcc>,
}

impl Engine {
    fn over(cluster: Cluster) -> Engine {
        Engine {
            cluster,
            last_timings: Vec::new(),
            job_acc: None,
        }
    }

    /// Starts configuring an engine from the **unit-test preset**
    /// ([`Config::test`]`(2)`: 2 machines × 1 worker, 1 KB message
    /// buffers, 256-edge chunks, the shipped ghost rule), which makes small
    /// graphs exercise the buffering and flushing paths; finish with
    /// [`BuildEngine::engine`].
    /// Anything that is measured or shipped starts from
    /// [`Config::builder`] — the benchmark preset — instead; the setters
    /// are the same [`ConfigBuilder`] either way.
    pub fn builder() -> ConfigBuilder {
        ConfigBuilder::from(Config::test(2))
    }

    /// The underlying cluster (benchmarks reach through for counters).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Mutable cluster access (advanced/bench use).
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// Number of machines.
    pub fn num_machines(&self) -> usize {
        self.cluster.num_machines()
    }

    /// Total vertices.
    pub fn num_nodes(&self) -> usize {
        self.cluster.num_nodes()
    }

    // ------------------------------------------------------------------
    // Properties
    // ------------------------------------------------------------------

    /// Creates a node property with a default value on every machine.
    pub fn add_prop<T: PropValue>(&mut self, name: &str, default: T) -> Prop<T> {
        Prop::new(self.cluster.add_prop(name, default))
    }

    /// Drops a (temporary) property everywhere.
    pub fn drop_prop<T: PropValue>(&mut self, p: Prop<T>) {
        self.cluster.drop_prop(p.id);
    }

    /// Driver-side read of one vertex's value.
    pub fn get<T: PropValue>(&self, p: Prop<T>, v: NodeId) -> T {
        self.cluster.get(p.id, v)
    }

    /// Driver-side write of one vertex's value (between jobs only).
    pub fn set<T: PropValue>(&self, p: Prop<T>, v: NodeId, value: T) {
        self.cluster.set(p.id, v, value)
    }

    /// Fills a property everywhere (including ghost slots).
    pub fn fill<T: PropValue>(&self, p: Prop<T>, value: T) {
        self.cluster.fill(p.id, value)
    }

    /// Gathers a property into a vector indexed by global vertex id.
    pub fn gather<T: PropValue>(&self, p: Prop<T>) -> Vec<T> {
        self.cluster.gather(p.id)
    }

    /// Sequential global reduction over all vertices (driver-side).
    pub fn reduce<T: PropValue>(&self, p: Prop<T>, op: ReduceOp) -> T {
        self.cluster.reduce::<T>(p.id, op)
    }

    /// Counts vertices whose boolean property is set.
    pub fn count_true(&self, p: Prop<bool>) -> usize {
        self.cluster.count_true(p.id)
    }

    // ------------------------------------------------------------------
    // Checkpoint/restore
    // ------------------------------------------------------------------

    /// Snapshots every registered property plus `iteration`/`scalars`
    /// into per-machine checkpoint stores. Call between jobs — the
    /// quiescent cluster makes the snapshot barrier-consistent.
    pub fn take_checkpoint(
        &mut self,
        iteration: u64,
        scalars: Vec<u64>,
    ) -> Result<Arc<Checkpoint>, JobError> {
        let t0 = Instant::now();
        let result = self.cluster.take_checkpoint(iteration, scalars);
        if let Some(acc) = &mut self.job_acc {
            acc.checkpoint_s += t0.elapsed().as_secs_f64();
        }
        result
    }

    /// Restores a checkpoint taken on this cluster or on a differently
    /// partitioned one (degraded restart on survivors).
    pub fn restore_checkpoint(&mut self, ckpt: &Checkpoint) -> Result<(), JobError> {
        self.cluster.restore_checkpoint(ckpt)
    }

    /// The most recent durably-complete checkpoint, if any (plain copied
    /// memory — safe to hold across this engine's teardown).
    pub fn last_checkpoint(&self) -> Option<Arc<Checkpoint>> {
        self.cluster.last_checkpoint()
    }

    /// All retained checkpoints, newest first. The recovery driver carries
    /// this across engine teardown so a restore that finds the newest entry
    /// corrupt can fall back to an older one.
    pub fn checkpoint_ring(&self) -> Vec<Arc<Checkpoint>> {
        self.cluster.checkpoint_ring()
    }

    /// Wire-repair telemetry from the transport (reconnects, injected
    /// faults); `None` on the in-memory backend.
    pub fn wire_counters(&self) -> Option<pgxd_runtime::transport::WireCountersSnapshot> {
        self.cluster.wire_counters()
    }

    /// Abruptly severs the transport — no goodbye handshakes, so peers see
    /// exactly what a SIGKILL of this rank would produce. Chaos/test hook.
    pub fn sever_transport(&self) {
        self.cluster.sever_transport()
    }

    // ------------------------------------------------------------------
    // Jobs
    // ------------------------------------------------------------------

    /// Runs an edge-iterator job: `task.run` executes for every `dir`-edge
    /// of every vertex passing `task.filter`, across all machines — or,
    /// for a task that declares a [`Reduction`](crate::Reduction), the
    /// engine folds or scatters over those edges itself. A machine crash,
    /// partition, or protocol violation surfaces as a structured
    /// [`JobError`] once every worker has reached the phase barrier — no
    /// hang, no panic.
    ///
    /// `spec` lists what the job reads and reduces beyond its declaration:
    /// a fold's source is read and a scatter's `(dst, op)` reduced without
    /// being listed. A `spec` entry that contradicts the declaration panics
    /// here, on the driver, before the job starts.
    pub fn try_run_edge_job<T: EdgeTask>(
        &mut self,
        dir: Dir,
        spec: &JobSpec,
        task: T,
    ) -> Result<JobReport, JobError> {
        self.try_run_edge_job_with(dir, spec, task, &CancelToken::never())
    }

    /// [`Engine::try_run_edge_job`] with a cancellation token. Workers poll
    /// the token once per chunk; a fired token lets the current chunk
    /// finish, retires the rest of the queue, ends the phase at its normal
    /// barrier, and surfaces [`JobError::Cancelled`] or
    /// [`JobError::DeadlineExceeded`]. The cluster stays healthy — the next
    /// job runs normally.
    pub fn try_run_edge_job_with<T: EdgeTask>(
        &mut self,
        dir: Dir,
        spec: &JobSpec,
        task: T,
        cancel: &CancelToken,
    ) -> Result<JobReport, JobError> {
        let reduction = task.reduction();
        let queues = self.build_queues(dir, self.cluster.config().chunking);
        let main = Arc::new(EdgeJobPhase {
            task: Arc::new(task),
            reduction,
            dir,
            core: JobCore::new(&self.cluster, spec, reduction, queues, cancel),
        });
        self.try_run_job_phase(&main.core, main.clone(), cancel)
    }

    /// Runs a node-iterator job: `task.run` executes once per active
    /// vertex; fails like [`Engine::try_run_edge_job`].
    pub fn try_run_node_job<T: NodeTask>(
        &mut self,
        spec: &JobSpec,
        task: T,
    ) -> Result<JobReport, JobError> {
        self.try_run_node_job_with(spec, task, &CancelToken::never())
    }

    /// [`Engine::try_run_node_job`] with a cancellation token; see
    /// [`Engine::try_run_edge_job_with`] for the semantics.
    pub fn try_run_node_job_with<T: NodeTask>(
        &mut self,
        spec: &JobSpec,
        task: T,
        cancel: &CancelToken,
    ) -> Result<JobReport, JobError> {
        // Node jobs have uniform per-vertex work: chunk by vertex count
        // scaled from the edge target.
        let queues = self.build_queues(Dir::Out, ChunkingMode::Node);
        let main = Arc::new(NodeJobPhase {
            task: Arc::new(task),
            core: JobCore::new(&self.cluster, spec, None, queues, cancel),
        });
        self.try_run_job_phase(&main.core, main.clone(), cancel)
    }

    /// Maps a fired token to its structured error.
    fn cancel_error(cancel: &CancelToken) -> Option<JobError> {
        cancel.fired().map(|reason| match reason {
            CancelReason::Explicit => JobError::Cancelled { job: cancel.job() },
            CancelReason::Deadline => JobError::DeadlineExceeded { job: cancel.job() },
        })
    }

    /// Runs the job `main`, whose phase state is `core`.
    fn try_run_job_phase(
        &mut self,
        core: &JobCore,
        main: Arc<dyn Phase>,
        cancel: &CancelToken,
    ) -> Result<JobReport, JobError> {
        let before = self.cluster.total_stats();
        let t0 = Instant::now();

        // A token that fired while the job sat in a queue means nothing
        // ran yet; bail before spinning up any phase.
        if let Some(err) = Self::cancel_error(cancel) {
            return Err(err);
        }

        // Every ghost slot of a reduced property starts at bottom: the
        // workers' merges fold into it, and what leaves bottom is the
        // machine's partial for the owner. The count of ghost values of
        // read properties stored restarts at zero (Relaxed: the job-start
        // barrier, and every message after it, orders the store before any
        // copier counts). Both before that barrier, so no peer's ghost sync
        // can land first.
        for m in self.cluster.machines() {
            for &(prop, op) in &core.reduces {
                let col = m.props.column(prop);
                col.fill_ghosts(bottom_bits(col.tag(), op));
            }
            m.ghosts_synced.store(0, Ordering::Relaxed);
        }

        // Multi-process clusters: sequential-region mutations (property
        // registration and drops) happen independently on each rank's
        // driver, so a fast peer could start sending job traffic naming
        // properties a slow rank has not registered yet. A control-plane
        // barrier at job start closes that race; between phases the
        // termination protocol already orders the ranks.
        self.cluster.node_barrier()?;

        // The main phase also carries the ghost values to their readers and
        // the ghost partials to their owners.
        let t_main = Instant::now();
        self.cluster.try_run_labeled_phase("main", main)?;
        let main_dur = t_main.elapsed();

        // The phase ended at its barrier; a fired token or an epilogue
        // that sent now becomes the job's structured result.
        if let Some(err) = Self::cancel_error(cancel) {
            return Err(err);
        }
        if let Some(err) = core.failed.get() {
            return Err(err.clone());
        }

        let total = t0.elapsed();
        self.last_timings = core.job.timings();
        let breakdown = Breakdown::from_timings(&self.last_timings);
        if let Some(acc) = &mut self.job_acc {
            acc.compute_s += breakdown.fully_parallel;
            acc.comm_s += breakdown.intra_machine + breakdown.inter_machine;
            acc.drain_s += breakdown.drain;
            acc.engine_jobs += 1;
        }
        Ok(JobReport {
            total,
            main: main_dur,
            traffic: self.cluster.total_stats() - before,
            breakdown,
        })
    }

    /// Runs an empty phase through the full control path — the cost floor
    /// of one synchronization step (Figure 5b, shared-memory barrier).
    pub fn barrier_roundtrip(&mut self) -> Duration {
        struct Noop;
        impl Phase for Noop {
            fn execute(&self, _env: &mut pgxd_runtime::phase::WorkerEnv<'_>) {}
        }
        let t0 = Instant::now();
        self.cluster
            .try_run_phase(Arc::new(Noop))
            .expect("barrier phase failed");
        t0.elapsed()
    }

    /// Crosses the message-based distributed barrier once (Figure 5b,
    /// strict-distributed variant).
    pub fn dist_barrier_roundtrip(&mut self) -> Duration {
        let t0 = Instant::now();
        self.cluster.run_dist_barrier();
        t0.elapsed()
    }

    /// Per-worker timings of the last job's main phase.
    pub fn last_timings(&self) -> &[Vec<pgxd_runtime::stats::WorkerTiming>] {
        &self.last_timings
    }

    // ------------------------------------------------------------------
    // Served-job attribution (the serve layer's ServeEngine hooks)
    // ------------------------------------------------------------------

    /// Opens a served-job attribution window: the cluster charges wire
    /// traffic to `ctx` and this engine starts summing compute/comm/drain
    /// breakdowns of the engine jobs it runs until
    /// [`Engine::end_job_window`].
    pub fn begin_job_window(&mut self, ctx: JobCtx, enqueue_ns: u64) {
        self.job_acc = Some(JobAcc::default());
        self.cluster.begin_job(ctx, enqueue_ns);
    }

    /// Closes the window and returns the job's execution record, also
    /// appending it to the Chrome-trace job lanes while telemetry is on.
    pub fn end_job_window(&mut self, outcome: JobOutcome) -> Option<JobExec> {
        let acc = self.job_acc.take().unwrap_or_default();
        let mut exec = self.cluster.end_job(outcome)?;
        exec.compute_s = acc.compute_s;
        exec.comm_s = acc.comm_s;
        exec.drain_s = acc.drain_s;
        exec.checkpoint_s = acc.checkpoint_s;
        exec.engine_jobs = acc.engine_jobs;
        self.cluster.push_job_span(&exec);
        Some(exec)
    }

    /// Writes `trace.json` (Chrome `trace_event` format, Perfetto-viewable)
    /// and `report.json` (per-machine metrics) into `dir`. The report
    /// includes the breakdown of the last job, drain time included.
    pub fn export_telemetry(
        &self,
        dir: &std::path::Path,
    ) -> std::io::Result<(std::path::PathBuf, std::path::PathBuf)> {
        use pgxd_runtime::telemetry::export::json::Value;
        let b = Breakdown::from_timings(&self.last_timings);
        let extra = vec![(
            "last_job_breakdown".to_string(),
            Value::obj(vec![
                ("fully_parallel_s", b.fully_parallel.into()),
                ("intra_machine_s", b.intra_machine.into()),
                ("inter_machine_s", b.inter_machine.into()),
                ("drain_s", b.drain.into()),
            ]),
        )];
        self.cluster.export_telemetry_with(dir, extra)
    }

    /// Chunk queues over each hosted machine's `dir` fragment, cut by
    /// `mode`. Slots are indexed by machine id: in-process every slot is a
    /// real queue; on a rank of a multi-process cluster only the local
    /// machine's slot is populated (peers chunk their own fragments).
    fn build_queues(&self, dir: Dir, mode: ChunkingMode) -> Vec<Arc<ChunkQueue>> {
        let config = self.cluster.config();
        let mut queues: Vec<Arc<ChunkQueue>> = (0..config.machines)
            .map(|_| Arc::new(ChunkQueue::new(Vec::new())))
            .collect();
        for m in self.cluster.machines() {
            let frag = match dir {
                Dir::Out => &m.graph.out,
                Dir::In => &m.graph.inn,
            };
            let n = m.graph.num_local();
            let target = match mode {
                ChunkingMode::Edge => config.chunk_edges,
                ChunkingMode::Node => {
                    node_target_from_edges(config.chunk_edges, n, frag.num_edges())
                }
            };
            let chunks = make_chunks(&frag.row_ptr, n, mode, target);
            queues[m.id as usize] = Arc::new(ChunkQueue::new(chunks));
        }
        queues
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Engine({:?})", self.cluster)
    }
}
