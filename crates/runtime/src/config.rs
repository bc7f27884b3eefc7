//! Cluster configuration: thread counts, buffer sizes, partitioning and
//! chunking strategies, ghost threshold, transport selection, the three
//! seeded fault plans, and the one builder that sets them.

use crate::fault::PerMille;
use crate::reliable::RTO_MAX_MS;
use crate::tcp::MAX_FRAME_BYTES;

/// How vertices are assigned to machines (§3.3, Figure 6b).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitioningMode {
    /// Each machine gets an equal number of *vertices* (the naive baseline
    /// the paper compares against).
    Vertex,
    /// Each machine gets an equal share of `in-degree + out-degree` — the
    /// paper's edge partitioning. Partitions remain contiguous vertex
    /// ranges identified by P−1 pivots.
    Edge,
}

/// How a parallel region's tasks are cut into worker chunks (§3.3,
/// Figure 6c).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChunkingMode {
    /// Chunks contain an equal number of nodes (baseline).
    Node,
    /// Chunks contain an approximately equal number of edges — the paper's
    /// edge chunking, essential for core-level balance on skewed graphs.
    Edge,
}

/// Which [`Transport`](crate::transport::Transport) backend carries
/// envelopes between machines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportBackend {
    /// The single-process channel switch: every machine lives in this
    /// address space (default; all simulation features available).
    #[default]
    InMemory,
    /// Real TCP sockets between OS processes: this process hosts exactly
    /// one machine (its rank) and the rest of the cluster is elsewhere.
    Tcp,
}

/// Transport selection and the deployment addresses it needs, folded
/// into the validated [`Config`]. The default is the single-process
/// backend.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TransportConfig {
    /// Backend choice.
    pub backend: TransportBackend,
    /// Rank 0's bootstrap listener address. Required for TCP on every
    /// rank: rank 0 binds it (a `:0` port is announced once bound), the
    /// others join through it.
    pub coord_addr: Option<String>,
    /// Bind address for this process's data listener (TCP only). A `:0`
    /// port is fine: the concrete address is exchanged during bootstrap.
    pub listen_addr: String,
    /// This process's machine id (TCP only; 0 = coordinator).
    pub rank: Option<u16>,
}

impl TransportConfig {
    /// A TCP backend joining (or coordinating, for `rank` 0) the cluster
    /// whose bootstrap listener is at `coord_addr`.
    pub fn tcp(coord_addr: impl Into<String>, rank: u16) -> Self {
        TransportConfig {
            backend: TransportBackend::Tcp,
            coord_addr: Some(coord_addr.into()),
            listen_addr: "127.0.0.1:0".into(),
            rank: Some(rank),
        }
    }
}

/// Crash a machine at a deterministic point in virtual time.
///
/// Virtual time is the fabric's global send counter, so "after N sends"
/// names the same instant on every run with the same seed and workload.
/// A crash is modeled as a permanent partition: once triggered, the fabric
/// silently swallows every envelope to or from the machine (its threads
/// keep running — exactly what a surviving peer observes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashPlan {
    /// Machine to partition away.
    pub machine: u16,
    /// Trigger after this many envelopes have entered the fabric.
    pub after_sends: u64,
}

/// Deterministic fault-injection schedule applied inside `Fabric::send`.
///
/// Every per-envelope decision (drop / duplicate / reorder) is a pure
/// function of `seed` and the global send counter, so a given plan replays
/// identically run after run. Rates are per-mille (‰): `10` means 1% of
/// envelopes. Reordered envelopes are held in a limbo buffer and released
/// after a few further sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed for the per-envelope fault dice.
    pub seed: u64,
    /// Probability (‰) of silently dropping an envelope.
    pub drop_per_mille: u16,
    /// Probability (‰) of delivering an envelope twice.
    pub dup_per_mille: u16,
    /// Probability (‰) of holding an envelope back so later traffic
    /// overtakes it.
    pub reorder_per_mille: u16,
    /// Optional machine crash (permanent partition). One-shot: the
    /// recovery driver clears it on retry, as a transient partition would
    /// be.
    pub crash: Option<CrashPlan>,
}

impl FaultPlan {
    /// The inert plan: no faults, zero overhead in the fabric.
    pub const fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop_per_mille: 0,
            dup_per_mille: 0,
            reorder_per_mille: 0,
            crash: None,
        }
    }

    /// A message-level plan: drop / duplicate / reorder rates in ‰.
    pub const fn lossy(seed: u64, drop: u16, dup: u16, reorder: u16) -> Self {
        FaultPlan {
            seed,
            drop_per_mille: drop,
            dup_per_mille: dup,
            reorder_per_mille: reorder,
            ..FaultPlan::none()
        }
    }

    /// A plan whose only fault is crashing `machine` after `after_sends`
    /// envelopes.
    pub const fn crash(machine: u16, after_sends: u64) -> Self {
        FaultPlan {
            crash: Some(CrashPlan {
                machine,
                after_sends,
            }),
            ..FaultPlan::none()
        }
    }

    /// Whether any fault can ever fire under this plan.
    pub fn is_active(&self) -> bool {
        self.drop_per_mille > 0
            || self.dup_per_mille > 0
            || self.reorder_per_mille > 0
            || self.crash.is_some()
    }
}

/// Deterministic fault-injection schedule for *checkpoint storage*,
/// applied inside [`CheckpointStore::save`](crate::checkpoint::CheckpointStore).
///
/// Where [`FaultPlan`] breaks the wire, this breaks the durable layer
/// underneath recovery: a shard write can be **lost** (the store never
/// records it), **corrupted** (a word is flipped after the checksum was
/// computed, so verification fails at restore time), or **delayed** (the
/// shard becomes durable only when the *next* save lands, like a lagging
/// flush). Every decision is a pure function of `seed` and the store's
/// monotonic save counter, so a plan replays identically run after run.
/// Rates are per-mille (‰).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct StorageFaultPlan {
    /// Seed for the per-save fault dice.
    pub seed: u64,
    /// Probability (‰) that a shard save is silently lost.
    pub lose_per_mille: u16,
    /// Probability (‰) that a stored shard is corrupted (one word flipped
    /// after checksumming — caught by `verify()` at restore).
    pub corrupt_per_mille: u16,
    /// Probability (‰) that a shard save becomes durable only at the next
    /// save on the same store.
    pub delay_per_mille: u16,
}

impl StorageFaultPlan {
    /// The inert plan: storage is perfectly durable.
    pub const fn none() -> Self {
        StorageFaultPlan {
            seed: 0,
            lose_per_mille: 0,
            corrupt_per_mille: 0,
            delay_per_mille: 0,
        }
    }

    /// A plan with explicit lose / corrupt / delay rates in ‰.
    pub const fn faulty(seed: u64, lose: u16, corrupt: u16, delay: u16) -> Self {
        StorageFaultPlan {
            seed,
            lose_per_mille: lose,
            corrupt_per_mille: corrupt,
            delay_per_mille: delay,
        }
    }

    /// Whether any storage fault can ever fire under this plan.
    pub fn is_active(&self) -> bool {
        self.lose_per_mille > 0 || self.corrupt_per_mille > 0 || self.delay_per_mille > 0
    }

    /// What the seeded dice decide for the `counter`-th save on a store.
    /// This is a pure function of `(seed, counter)` — `CheckpointStore`
    /// consults exactly this, so tests and harnesses can precompute a
    /// plan's entire fault schedule (e.g. pick a seed whose corruption
    /// pattern guarantees a ring-fallback restore) instead of hoping a
    /// rate fires.
    pub fn draw(&self, counter: u64) -> StorageFaultKind {
        let h = crate::fault::mix(self.seed, counter);
        if PerMille::vetted(self.lose_per_mille).hit(h) {
            StorageFaultKind::Lose
        } else if PerMille::vetted(self.corrupt_per_mille).hit(h >> 10) {
            StorageFaultKind::Corrupt
        } else if PerMille::vetted(self.delay_per_mille).hit(h >> 20) {
            StorageFaultKind::Delay
        } else {
            StorageFaultKind::Store
        }
    }
}

/// Dice outcome for one shard save under a [`StorageFaultPlan`] — see
/// [`StorageFaultPlan::draw`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageFaultKind {
    /// The save lands durably and verifiably.
    Store,
    /// The save is silently dropped.
    Lose,
    /// The save lands with one flipped bit and a stale checksum.
    Corrupt,
    /// The save becomes durable only at the next save on the same store.
    Delay,
}

/// Deterministic fault-injection schedule for the *real wire*, applied
/// inside `TcpTransport::send` and its accept loop.
///
/// Where [`FaultPlan`] breaks the simulated fabric and
/// [`StorageFaultPlan`] breaks the durable layer, this breaks actual
/// sockets: a send can find its connection **reset** (the transport
/// shuts the stream down and must reconnect), or **stalled** (the frame
/// header lands, then the payload hangs for a couple of milliseconds — a
/// partial write under backpressure). The acceptor can refuse the first
/// `refuse_accepts` inbound reconnects. Every per-send decision is a pure
/// function of `seed` and the transport's monotonic send counter — public
/// dice, same idiom as [`StorageFaultPlan::draw`] — so a failure schedule
/// replays identically run after run. Rates are per-mille (‰).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct WireFaultPlan {
    /// Seed for the per-send fault dice.
    pub seed: u64,
    /// Probability (‰) that a send finds its lane's connection reset.
    pub reset_per_mille: u16,
    /// Probability (‰) that a send stalls mid-frame.
    pub stall_per_mille: u16,
    /// Refuse this many inbound reconnect accepts before serving them.
    pub refuse_accepts: u32,
}

impl WireFaultPlan {
    /// The inert plan: the wire is perfect.
    pub const fn none() -> Self {
        WireFaultPlan {
            seed: 0,
            reset_per_mille: 0,
            stall_per_mille: 0,
            refuse_accepts: 0,
        }
    }

    /// A plan with explicit reset / stall rates in ‰.
    pub const fn faulty(seed: u64, reset: u16, stall: u16) -> Self {
        WireFaultPlan {
            seed,
            reset_per_mille: reset,
            stall_per_mille: stall,
            ..WireFaultPlan::none()
        }
    }

    /// Whether any wire fault can ever fire under this plan.
    pub fn is_active(&self) -> bool {
        self.reset_per_mille > 0 || self.stall_per_mille > 0 || self.refuse_accepts > 0
    }

    /// What the seeded dice decide for the `counter`-th send on a
    /// transport. Pure function of `(seed, counter)` — the transport
    /// consults exactly this, so a harness can precompute the entire
    /// reset/stall schedule for a seed instead of hoping a rate fires.
    pub fn draw(&self, counter: u64) -> WireFaultKind {
        let h = crate::fault::mix(self.seed, counter);
        if PerMille::vetted(self.reset_per_mille).hit(h) {
            WireFaultKind::Reset
        } else if PerMille::vetted(self.stall_per_mille).hit(h >> 10) {
            WireFaultKind::Stall
        } else {
            WireFaultKind::Deliver
        }
    }
}

/// Dice outcome for one send under a [`WireFaultPlan`] — see
/// [`WireFaultPlan::draw`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireFaultKind {
    /// The frame goes out untouched.
    Deliver,
    /// The lane's connection is reset before the write; the transport
    /// must reconnect and retry.
    Reset,
    /// The frame header lands, then the payload stalls briefly.
    Stall,
}

/// Reliable-delivery protocol knobs (sequence numbers, ack/retransmit,
/// heartbeats, crash watchdog). Whether the protocol runs at all is not a
/// setting: [`Config::reliable`] derives it from where envelopes can be
/// lost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReliabilityConfig {
    /// Poller housekeeping interval (heartbeats, retransmit sweep,
    /// watchdog check), milliseconds.
    pub tick_ms: u64,
    /// Initial retransmission timeout, milliseconds; doubles per retry up
    /// to [`RTO_MAX_MS`].
    pub rto_base_ms: u64,
    /// Silence threshold after which the watchdog declares a peer machine
    /// crashed, milliseconds.
    pub watchdog_ms: u64,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig {
            tick_ms: 5,
            rto_base_ms: 25,
            watchdog_ms: 500,
        }
    }
}

/// Checkpoint/restore and automatic retry knobs (see
/// [`crate::checkpoint`] and the `RecoveryDriver` in the `pgxd` crate).
/// Off by default: no snapshots are taken and a `JobError` surfaces to the
/// caller exactly as before recovery existed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Master switch for checkpointing and automatic retry.
    pub enabled: bool,
    /// Snapshot every N completed algorithm iterations (phase-barrier
    /// cadence — snapshots are only ever taken at a quiescent barrier).
    pub checkpoint_every: u64,
    /// Retry attempts after the initial run before giving up with
    /// [`JobError::RetriesExhausted`](crate::health::JobError).
    pub max_retries: u32,
    /// Checkpoints retained per store (a small ring, newest first): when
    /// the latest snapshot fails verification the driver falls back to an
    /// older ring entry before resorting to a cold restart.
    pub retain: usize,
    /// Watchdog trips by one machine before the recovery driver
    /// quarantines it and proactively degrades to a P−1 restore. `1`
    /// reproduces the pre-quarantine behavior: the first trip already
    /// drops the machine.
    pub flap_threshold: u32,
}

impl RecoveryConfig {
    pub const fn off() -> Self {
        RecoveryConfig {
            enabled: false,
            checkpoint_every: 1,
            max_retries: 3,
            retain: 2,
            flap_threshold: 1,
        }
    }

    pub const fn on() -> Self {
        RecoveryConfig {
            enabled: true,
            ..RecoveryConfig::off()
        }
    }
}

/// Telemetry switches (see [`crate::telemetry`]).
///
/// The always-on [`crate::stats::MachineStats`] counters are unaffected by
/// these settings; `enabled` gates the histograms and per-worker event
/// tracers, whose hot-path cost when off is one branch per hook.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct TelemetryConfig {
    /// Record histograms and trace events.
    pub enabled: bool,
}

impl TelemetryConfig {
    pub const fn off() -> Self {
        TelemetryConfig { enabled: false }
    }

    pub const fn on() -> Self {
        TelemetryConfig { enabled: true }
    }
}

/// Job-server (serving layer) knobs: submission queue depth, admission
/// memory budget, lane weights, brownout gate and retry budget. Used by
/// the `pgxd::serve` subsystem; inert for direct `try_run_*` callers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bounded submission-queue depth across all lanes; a submit beyond
    /// this is rejected with `JobError::QueueFull` instead of blocking.
    pub queue_depth: usize,
    /// Admission-control memory budget in bytes; a job whose estimate
    /// (property columns + buffer-pool share + checkpoint overhead) would
    /// overshoot it is rejected with `JobError::AdmissionDenied`.
    /// `0` disables admission control.
    pub memory_budget_bytes: u64,
    /// Weighted-fair dispatch weights for the `[interactive, batch]`
    /// lanes; `[3, 1]` drains roughly three interactive jobs per batch
    /// job. Both weights must be >= 1.
    pub lane_weights: [u32; 2],
    /// Brownout shed threshold as queue occupancy in ‰ of `queue_depth`:
    /// when total queued jobs cross it, batch-lane submits are rejected
    /// with `JobError::Overloaded` until occupancy falls back below the
    /// reopen threshold. `0` disables brownout.
    pub brownout_shed_per_mille: u16,
    /// Brownout reopen threshold (‰ of `queue_depth`); must be below the
    /// shed threshold so the gate has hysteresis and re-opens cleanly
    /// instead of flapping at the boundary.
    pub brownout_reopen_per_mille: u16,
    /// Server-wide retry-budget capacity (token bucket shared across all
    /// sessions): concurrent tenants draw retry tokens from one pool so a
    /// degraded cluster cannot be retry-stormed. `0` disables the budget
    /// (unlimited retries).
    pub retry_budget_tokens: u32,
    /// One retry token is refilled every this-many milliseconds.
    pub retry_budget_refill_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_depth: 64,
            memory_budget_bytes: 0,
            lane_weights: [3, 1],
            brownout_shed_per_mille: 0,
            brownout_reopen_per_mille: 0,
            retry_budget_tokens: 0,
            retry_budget_refill_ms: 100,
        }
    }
}

/// Full cluster configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct Config {
    /// Number of simulated machines (PGX.D processes).
    pub machines: usize,
    /// Worker threads per machine (paper default: 16 on 32-HT machines).
    pub workers: usize,
    /// Copier threads per machine (paper default: 8).
    pub copiers: usize,
    /// Maximum payload bytes per message buffer (paper: 256 KB; scaled
    /// default 64 KB keeps latency reasonable at simulation scale).
    pub buffer_bytes: usize,
    /// Buffers available per machine before senders experience
    /// back-pressure.
    pub send_buffers_per_machine: usize,
    /// Ghost-node degree threshold: nodes whose in- or out-degree exceeds
    /// this are ghost candidates, and a machine mirrors a candidate it does
    /// not own when one of its vertices shares an edge with it. `None`
    /// disables ghosts. Default `Some(0)`: every vertex with an edge, at
    /// every machine count (one machine owns every vertex, so keeps no slot).
    pub ghost_threshold: Option<usize>,
    /// Vertex or edge partitioning.
    pub partitioning: PartitioningMode,
    /// Node or edge chunking.
    pub chunking: ChunkingMode,
    /// Target edges per chunk when edge chunking (nodes per chunk when node
    /// chunking is derived from this divided by the average degree).
    pub chunk_edges: usize,
    /// End every phase on the termination wave (`crate::term`: four
    /// counters, one coordinator) instead of the shared `pending` counter.
    /// TCP forces it: processes share no counter.
    pub strict_distributed: bool,
    /// Transport backend and the addresses it needs.
    pub transport: TransportConfig,
    /// Histogram/tracer switch.
    pub telemetry: TelemetryConfig,
    /// Deterministic fabric fault schedule (inert by default).
    pub fault: FaultPlan,
    /// Deterministic checkpoint-storage fault schedule (inert by default).
    pub storage_fault: StorageFaultPlan,
    /// Deterministic socket fault schedule (inert by default; TCP only).
    pub wire_fault: WireFaultPlan,
    /// Reliable-delivery protocol knobs; [`Config::reliable`] says whether
    /// it runs.
    pub reliability: ReliabilityConfig,
    /// Checkpoint/restore and automatic retry (off by default).
    pub recovery: RecoveryConfig,
    /// Free-list shards in each machine's send-buffer pool (rounded up to
    /// a power of two). Workers and copiers recycle buffers through their
    /// own shard, so acquire/release never contend across threads.
    pub pool_shards: usize,
    /// Job-server knobs; only read by the serving layer.
    pub serve: ServeConfig,
}

impl Config {
    /// Starts a validated builder seeded with the benchmark defaults
    /// ([`Config::bench`]`(4)`); see [`ConfigBuilder`].
    pub fn builder() -> ConfigBuilder {
        ConfigBuilder::from(Config::default())
    }

    /// The benchmark default: mirrors the paper's 16-worker / 8-copier
    /// setting scaled to a single host.
    pub fn bench(machines: usize) -> Self {
        Config {
            machines,
            workers: 2,
            copiers: 1,
            buffer_bytes: 64 << 10,
            send_buffers_per_machine: 64,
            ghost_threshold: Some(0),
            partitioning: PartitioningMode::Edge,
            chunking: ChunkingMode::Edge,
            chunk_edges: 16 * 1024,
            strict_distributed: false,
            transport: TransportConfig::default(),
            telemetry: TelemetryConfig::off(),
            fault: FaultPlan::none(),
            storage_fault: StorageFaultPlan::none(),
            wire_fault: WireFaultPlan::none(),
            reliability: ReliabilityConfig::default(),
            recovery: RecoveryConfig::off(),
            pool_shards: 4,
            serve: ServeConfig::default(),
        }
    }

    /// A small configuration suitable for unit tests: the benchmark default
    /// (ghost rule included) with 1 worker per machine, and tiny buffers,
    /// chunks and pools so that buffering/flushing paths are exercised even
    /// by small graphs.
    pub fn test(machines: usize) -> Self {
        Config {
            workers: 1,
            buffer_bytes: 1 << 10,
            send_buffers_per_machine: 16,
            chunk_edges: 256,
            pool_shards: 2,
            ..Config::bench(machines)
        }
    }

    /// Whether the reliable-delivery protocol runs: exactly where envelopes
    /// can be lost. An active [`FaultPlan`] loses them on purpose (and the
    /// exact termination counter hangs on one lost envelope); under
    /// `strict_distributed`, which TCP forces, the termination wave's
    /// frames ride outside the protocol and its poller tick repairs them,
    /// and a reset socket loses what it held. Derived, never set.
    pub fn reliable(&self) -> bool {
        self.strict_distributed || self.fault.is_active()
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.machines == 0 {
            return Err("machines must be >= 1".into());
        }
        if self.machines > u16::MAX as usize {
            return Err("machines must fit in a u16".into());
        }
        if self.workers == 0 {
            return Err("workers must be >= 1".into());
        }
        if self.copiers == 0 {
            return Err("copiers must be >= 1".into());
        }
        if self.buffer_bytes < 64 {
            return Err("buffer_bytes must be >= 64".into());
        }
        if self.buffer_bytes > MAX_FRAME_BYTES {
            return Err(format!(
                "buffer_bytes must be <= the {MAX_FRAME_BYTES}-byte frame bound"
            ));
        }
        if self.send_buffers_per_machine < 2 {
            return Err("need at least 2 send buffers per machine".into());
        }
        if self.chunk_edges == 0 {
            return Err("chunk_edges must be >= 1".into());
        }
        if self.pool_shards == 0 {
            return Err("pool_shards must be >= 1".into());
        }
        if self.pool_shards > 1024 {
            return Err("pool_shards must be <= 1024".into());
        }
        for (name, rate) in [
            ("fault.drop_per_mille", self.fault.drop_per_mille),
            ("fault.dup_per_mille", self.fault.dup_per_mille),
            ("fault.reorder_per_mille", self.fault.reorder_per_mille),
            (
                "storage_fault.lose_per_mille",
                self.storage_fault.lose_per_mille,
            ),
            (
                "storage_fault.corrupt_per_mille",
                self.storage_fault.corrupt_per_mille,
            ),
            (
                "storage_fault.delay_per_mille",
                self.storage_fault.delay_per_mille,
            ),
            (
                "wire_fault.reset_per_mille",
                self.wire_fault.reset_per_mille,
            ),
            (
                "wire_fault.stall_per_mille",
                self.wire_fault.stall_per_mille,
            ),
            (
                "serve.brownout_shed_per_mille",
                self.serve.brownout_shed_per_mille,
            ),
            (
                "serve.brownout_reopen_per_mille",
                self.serve.brownout_reopen_per_mille,
            ),
        ] {
            PerMille::checked(name, rate)?;
        }
        if self.storage_fault.is_active() && !self.recovery.enabled {
            return Err(
                "an active StorageFaultPlan requires recovery.enabled (only the \
                 recovery driver can fall back past a damaged checkpoint)"
                    .into(),
            );
        }
        if let Some(c) = self.fault.crash {
            if (c.machine as usize) >= self.machines {
                return Err("fault.crash.machine out of range".into());
            }
        }
        let r = &self.reliability;
        if r.tick_ms == 0 || r.rto_base_ms == 0 {
            return Err("reliability tick_ms/rto_base_ms must be >= 1".into());
        }
        if r.rto_base_ms > RTO_MAX_MS {
            return Err(format!(
                "reliability rto_base_ms must be <= the {RTO_MAX_MS} ms backoff ceiling"
            ));
        }
        if r.watchdog_ms < 2 * r.tick_ms {
            return Err("reliability watchdog_ms must be >= 2 * tick_ms".into());
        }
        if self.serve.queue_depth == 0 {
            return Err("serve.queue_depth must be >= 1".into());
        }
        if self.serve.lane_weights.contains(&0) {
            return Err("serve.lane_weights must both be >= 1".into());
        }
        if self.serve.brownout_shed_per_mille > 0 {
            let s = &self.serve;
            if s.brownout_reopen_per_mille >= s.brownout_shed_per_mille {
                return Err(
                    "serve.brownout_reopen_per_mille must be < brownout_shed_per_mille \
                     (the gate needs hysteresis to re-open cleanly)"
                        .into(),
                );
            }
        }
        if self.serve.retry_budget_tokens > 0 && self.serve.retry_budget_refill_ms == 0 {
            return Err("serve.retry_budget_refill_ms must be >= 1 when budgeted".into());
        }
        let t = &self.transport;
        if t.backend != TransportBackend::Tcp && self.wire_fault.is_active() {
            return Err(
                "an active WireFaultPlan only applies to the TCP backend (there is \
                 no socket to reset in-memory); use FaultPlan for simulated faults"
                    .into(),
            );
        }
        if t.backend == TransportBackend::Tcp {
            match t.rank {
                None => return Err("TCP transport requires an explicit rank".into()),
                Some(r) if (r as usize) >= self.machines => {
                    return Err(format!(
                        "transport.rank {r} out of range for {} machines",
                        self.machines
                    ));
                }
                Some(_) => {}
            }
            if t.coord_addr.is_none() {
                return Err("TCP transport requires transport.coord_addr".into());
            }
            if self.fault.crash.is_some() {
                return Err("a crash fault plan is a virtual-time simulation and only \
                     applies to the in-memory backend (kill the process instead)"
                    .into());
            }
            if !self.strict_distributed {
                return Err(
                    "TCP transport requires strict_distributed (the shared pending \
                     counter needs one address space)"
                        .into(),
                );
            }
        }
        if self.recovery.enabled {
            let rc = &self.recovery;
            if rc.checkpoint_every == 0 {
                return Err("recovery.checkpoint_every must be >= 1".into());
            }
            if rc.max_retries == 0 {
                return Err("recovery.max_retries must be >= 1 when enabled".into());
            }
            if rc.retain == 0 {
                return Err("recovery.retain must be >= 1 when enabled".into());
            }
            if rc.flap_threshold == 0 {
                return Err("recovery.flap_threshold must be >= 1 when enabled".into());
            }
        }
        Ok(())
    }
}

impl Default for Config {
    fn default() -> Self {
        Config::bench(4)
    }
}

/// Validated builder for [`Config`] — the one place configuration setters
/// are defined ([`Config::builder`] seeds it with the benchmark defaults,
/// `pgxd::Engine::builder` with the unit-test preset). Every setter is
/// loose and writes state no other setter writes, so call order never
/// matters; [`ConfigBuilder::build`] derives the switches that follow from
/// the rest (TCP needs the termination wave, the wave and an active fault
/// plan need the layer that survives loss) and runs [`Config::validate`],
/// so invalid combinations (zero quotas, a fault plan on TCP, ...) are
/// rejected in one place instead of panicking deep inside the engine.
#[derive(Clone, Debug, PartialEq)]
pub struct ConfigBuilder {
    config: Config,
}

impl From<Config> for ConfigBuilder {
    /// A builder that starts from `config` instead of the benchmark
    /// defaults.
    fn from(config: Config) -> Self {
        ConfigBuilder { config }
    }
}

impl ConfigBuilder {
    /// Number of simulated machines.
    pub fn machines(mut self, n: usize) -> Self {
        self.config.machines = n;
        self
    }

    /// Worker threads per machine.
    pub fn workers(mut self, n: usize) -> Self {
        self.config.workers = n;
        self
    }

    /// Copier threads per machine.
    pub fn copiers(mut self, n: usize) -> Self {
        self.config.copiers = n;
        self
    }

    /// Message-buffer capacity in bytes.
    pub fn buffer_bytes(mut self, n: usize) -> Self {
        self.config.buffer_bytes = n;
        self
    }

    /// Ghost-node degree threshold (`None` disables ghosts).
    pub fn ghost_threshold(mut self, t: Option<usize>) -> Self {
        self.config.ghost_threshold = t;
        self
    }

    /// Vertex or edge partitioning.
    pub fn partitioning(mut self, p: PartitioningMode) -> Self {
        self.config.partitioning = p;
        self
    }

    /// Node or edge chunking.
    pub fn chunking(mut self, c: ChunkingMode) -> Self {
        self.config.chunking = c;
        self
    }

    /// Target edges per chunk.
    pub fn chunk_edges(mut self, n: usize) -> Self {
        self.config.chunk_edges = n;
        self
    }

    /// Phases end on the termination wave, which runs the reliability
    /// protocol (its poller tick is the wave's repair path).
    pub fn strict_distributed(mut self, on: bool) -> Self {
        self.config.strict_distributed = on;
        self
    }

    /// Transport backend and addresses. Choosing
    /// [`TransportBackend::Tcp`] forces `strict_distributed` at
    /// [`ConfigBuilder::build`] time — the shared `pending` counter cannot
    /// span processes.
    pub fn transport(mut self, t: TransportConfig) -> Self {
        self.config.transport = t;
        self
    }

    /// Histogram/tracer switch.
    pub fn telemetry(mut self, t: TelemetryConfig) -> Self {
        self.config.telemetry = t;
        self
    }

    /// Fabric fault schedule; an active plan runs the reliability protocol
    /// (a lossy fabric without it would hang the exact termination
    /// counter).
    pub fn fault(mut self, plan: FaultPlan) -> Self {
        self.config.fault = plan;
        self
    }

    /// Checkpoint-storage fault schedule; an active plan enables recovery
    /// at [`ConfigBuilder::build`] time (only the recovery driver can route
    /// around bad storage).
    pub fn storage_fault(mut self, plan: StorageFaultPlan) -> Self {
        self.config.storage_fault = plan;
        self
    }

    /// Seeded socket-fault schedule for the TCP transport.
    pub fn wire_fault(mut self, plan: WireFaultPlan) -> Self {
        self.config.wire_fault = plan;
        self
    }

    /// Reliable-delivery protocol knobs (tick, retransmission timeout,
    /// crash-watchdog deadline).
    pub fn reliability(mut self, r: ReliabilityConfig) -> Self {
        self.config.reliability = r;
        self
    }

    /// Snapshot cadence in completed iterations; enables recovery.
    pub fn checkpoint_every(mut self, every: u64) -> Self {
        self.recovery_on().checkpoint_every = every;
        self
    }

    /// Retry budget after the initial attempt; enables recovery.
    pub fn max_retries(mut self, retries: u32) -> Self {
        self.recovery_on().max_retries = retries;
        self
    }

    /// Checkpoints retained per store (fallback ring depth); enables
    /// recovery.
    pub fn checkpoint_retain(mut self, n: usize) -> Self {
        self.recovery_on().retain = n;
        self
    }

    /// Watchdog trips before a machine is quarantined; enables recovery.
    pub fn flap_threshold(mut self, trips: u32) -> Self {
        self.recovery_on().flap_threshold = trips;
        self
    }

    fn recovery_on(&mut self) -> &mut RecoveryConfig {
        self.config.recovery.enabled = true;
        &mut self.config.recovery
    }

    /// Job-server submission-queue depth (bounded; overflow is rejected
    /// with `JobError::QueueFull`).
    pub fn queue_depth(mut self, n: usize) -> Self {
        self.config.serve.queue_depth = n;
        self
    }

    /// Job-server admission memory budget in bytes (`0` = unlimited).
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.config.serve.memory_budget_bytes = bytes;
        self
    }

    /// Weighted-fair dispatch weights for the `[interactive, batch]`
    /// lanes.
    pub fn lane_weights(mut self, weights: [u32; 2]) -> Self {
        self.config.serve.lane_weights = weights;
        self
    }

    /// Brownout thresholds as queue occupancy in ‰ of `queue_depth`
    /// (`shed` closes the batch lane, `reopen` re-opens it; `shed = 0`
    /// disables brownout).
    pub fn brownout(mut self, shed_per_mille: u16, reopen_per_mille: u16) -> Self {
        self.config.serve.brownout_shed_per_mille = shed_per_mille;
        self.config.serve.brownout_reopen_per_mille = reopen_per_mille;
        self
    }

    /// Server-wide retry-budget token bucket (`tokens = 0` disables it).
    pub fn retry_budget(mut self, tokens: u32, refill_ms: u64) -> Self {
        self.config.serve.retry_budget_tokens = tokens;
        self.config.serve.retry_budget_refill_ms = refill_ms;
        self
    }

    /// Derives the switches that follow from the rest of the configuration,
    /// validates, and returns it.
    pub fn build(mut self) -> Result<Config, String> {
        let c = &mut self.config;
        let tcp = c.transport.backend == TransportBackend::Tcp;
        c.strict_distributed |= tcp;
        c.recovery.enabled |= c.storage_fault.is_active();
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(Config::default().validate().is_ok());
        assert!(Config::test(2).validate().is_ok());
        assert!(Config::bench(8).validate().is_ok());
    }

    /// The configuration every benchmark workload runs under. A change to
    /// a preset value moves every number in `benchmark/`; make it on
    /// purpose, here.
    #[test]
    fn benchmark_configuration_is_pinned() {
        let b = Config::builder().machines(2).workers(1).copiers(1);
        let c = b.clone().build().unwrap();
        assert_eq!(
            (c.buffer_bytes, c.send_buffers_per_machine, c.pool_shards),
            (64 << 10, 64, 4)
        );
        assert_eq!((c.ghost_threshold, c.chunk_edges), (Some(0), 16 << 10));
        assert_eq!(
            (c.partitioning, c.chunking),
            (PartitioningMode::Edge, ChunkingMode::Edge)
        );
        assert!(!c.strict_distributed);
        assert!(!c.reliable() && !c.recovery.enabled && !c.telemetry.enabled);
        let r = c.reliability;
        assert_eq!((r.tick_ms, r.rto_base_ms, r.watchdog_ms), (5, 25, 500));
        assert!(!(c.fault.is_active() || c.storage_fault.is_active() || c.wire_fault.is_active()));

        let tcp = b
            .transport(TransportConfig::tcp("127.0.0.1:7402", 0))
            .build()
            .unwrap();
        assert!(tcp.strict_distributed && tcp.reliable());
        assert_eq!(tcp.reliability, ReliabilityConfig::default());
    }

    /// Every setter writes state no other setter writes, so any two commute
    /// (a plan stored inside `transport`, or a setter for one field of
    /// `reliability`, would be dropped by the later whole-struct setter).
    #[test]
    fn setters_commute() {
        type Setter = fn(ConfigBuilder) -> ConfigBuilder;
        let setters: &[(&str, Setter)] = &[
            ("machines", |b| b.machines(3)),
            ("workers", |b| b.workers(3)),
            ("copiers", |b| b.copiers(2)),
            ("buffer_bytes", |b| b.buffer_bytes(8 << 10)),
            ("ghost_threshold", |b| b.ghost_threshold(Some(7))),
            ("partitioning", |b| b.partitioning(PartitioningMode::Vertex)),
            ("chunking", |b| b.chunking(ChunkingMode::Node)),
            ("chunk_edges", |b| b.chunk_edges(99)),
            ("strict_distributed", |b| b.strict_distributed(true)),
            ("transport", |b| {
                b.transport(TransportConfig::tcp("127.0.0.1:7403", 1))
            }),
            ("telemetry", |b| b.telemetry(TelemetryConfig::on())),
            ("fault", |b| b.fault(FaultPlan::lossy(3, 10, 10, 10))),
            ("storage_fault", |b| {
                b.storage_fault(StorageFaultPlan::faulty(4, 10, 10, 10))
            }),
            ("wire_fault", |b| {
                b.wire_fault(WireFaultPlan::faulty(5, 10, 10))
            }),
            ("reliability", |b| {
                b.reliability(ReliabilityConfig {
                    watchdog_ms: 120,
                    ..ReliabilityConfig::default()
                })
            }),
            ("checkpoint_every", |b| b.checkpoint_every(4)),
            ("max_retries", |b| b.max_retries(5)),
            ("checkpoint_retain", |b| b.checkpoint_retain(3)),
            ("flap_threshold", |b| b.flap_threshold(2)),
            ("queue_depth", |b| b.queue_depth(8)),
            ("memory_budget", |b| b.memory_budget(1 << 20)),
            ("lane_weights", |b| b.lane_weights([4, 1])),
            ("brownout", |b| b.brownout(750, 250)),
            ("retry_budget", |b| b.retry_budget(4, 100)),
        ];
        let test_preset = || ConfigBuilder::from(Config::test(2));
        for seed in [Config::builder, test_preset] {
            for (a_name, a) in setters {
                for (b_name, b) in setters {
                    let (ab, ba) = (b(a(seed())), a(b(seed())));
                    assert_eq!(ab, ba, "{a_name} / {b_name}: raw state");
                    assert_eq!(ab.build(), ba.build(), "{a_name} / {b_name}: built");
                }
            }
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = Config::test(2);
        c.machines = 0;
        assert!(c.validate().is_err());
        let mut c = Config::test(2);
        c.workers = 0;
        assert!(c.validate().is_err());
        let mut c = Config::test(2);
        c.copiers = 0;
        assert!(c.validate().is_err());
        let mut c = Config::test(2);
        c.buffer_bytes = 8;
        assert!(c.validate().is_err());
        let mut c = Config::test(2);
        c.chunk_edges = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn transport_combinations_validated() {
        // A well-formed TCP config passes.
        let mut c = Config::test(2);
        c.transport = TransportConfig::tcp("127.0.0.1:7401", 1);
        c.strict_distributed = true;
        assert!(c.validate().is_ok());

        // Missing rank / out-of-range rank / missing coordinator address.
        let mut bad = c.clone();
        bad.transport.rank = None;
        assert!(bad.validate().is_err());
        let mut bad = c.clone();
        bad.transport.rank = Some(2);
        assert!(bad.validate().is_err());
        let mut bad = c.clone();
        bad.transport.coord_addr = None;
        assert!(bad.validate().is_err());

        // A virtual-time crash plan doesn't span processes.
        let mut bad = c.clone();
        bad.fault = FaultPlan::crash(1, 100);
        assert!(bad.validate().is_err());

        // Checkpoint/recovery is supported on TCP (node-mode collective
        // checkpointing).
        let mut ok = c.clone();
        ok.recovery = RecoveryConfig::on();
        assert!(ok.validate().is_ok());

        // Wire-fault plans are TCP-only (there is no socket in-memory).
        let mut ok = c.clone();
        ok.wire_fault = WireFaultPlan::faulty(11, 5, 5);
        assert!(ok.validate().is_ok());
        let mut bad = Config::test(2);
        bad.wire_fault = WireFaultPlan::faulty(11, 5, 5);
        assert!(bad.validate().unwrap_err().contains("TCP backend"));
        let mut bad = c.clone();
        bad.wire_fault.reset_per_mille = 1001;
        assert!(bad.validate().is_err());

        // Lossy plans are fine on TCP: the reliability protocol is
        // backend-agnostic and the injector sits above the transport.
        let mut ok = c.clone();
        ok.fault = FaultPlan::lossy(7, 10, 0, 0);
        assert!(ok.validate().is_ok());

        // Shared-memory termination cannot span processes.
        let mut bad = c.clone();
        bad.strict_distributed = false;
        assert!(bad.validate().is_err());

        // The builder forces both switches for TCP.
        let built = Config::builder()
            .transport(TransportConfig::tcp("127.0.0.1:7402", 0))
            .build()
            .unwrap();
        assert!(built.strict_distributed);
        assert!(built.reliable());

        // The wave repairs lost frames on the reliable tick, on either
        // backend, so strict mode runs the protocol however it was set.
        let mut ok = Config::test(2);
        ok.strict_distributed = true;
        assert!(ok.validate().is_ok() && ok.reliable());

        // A full buffer must fit in a frame, on either backend.
        let mut bad = Config::test(2);
        bad.buffer_bytes = MAX_FRAME_BYTES + 1;
        assert!(bad.validate().unwrap_err().contains("frame bound"));
        bad.buffer_bytes = MAX_FRAME_BYTES;
        assert!(bad.validate().is_ok());
    }

    /// The wire-fault dice are public and pure: a harness can precompute
    /// the exact reset/stall schedule for a seed.
    #[test]
    fn wire_fault_dice_are_deterministic() {
        let p = WireFaultPlan::faulty(42, 100, 100);
        assert!(p.is_active());
        assert!(!WireFaultPlan::none().is_active());
        let a: Vec<WireFaultKind> = (0..256).map(|c| p.draw(c)).collect();
        let b: Vec<WireFaultKind> = (0..256).map(|c| p.draw(c)).collect();
        assert_eq!(a, b, "same seed must replay the same schedule");
        assert!(
            a.contains(&WireFaultKind::Reset),
            "a 10% reset rate must fire within 256 draws"
        );
        assert!(
            a.contains(&WireFaultKind::Deliver),
            "a 10% rate must not fire on every draw"
        );
        // Inert plan never fires regardless of counter.
        assert_eq!(WireFaultPlan::none().draw(7), WireFaultKind::Deliver);
    }

    #[test]
    fn active_fault_requires_reliability() {
        // A plan written straight into the field runs the protocol too:
        // there is no switch to forget.
        let mut c = Config::test(2);
        assert!(!c.reliable());
        c.fault = FaultPlan::lossy(1, 10, 10, 0);
        assert!(c.validate().is_ok() && c.reliable());
        c.fault = FaultPlan::crash(1, 100);
        assert!(c.validate().is_ok() && c.reliable());
    }

    /// The protocol runs exactly where an envelope can be lost: under an
    /// active fault plan, and under `strict_distributed` (which TCP forces
    /// and whose wave frames the poller tick repairs). A crash plan is an
    /// in-memory simulation; TCP refuses it.
    #[test]
    fn reliability_runs_exactly_where_envelopes_can_be_lost() {
        let plans = [
            FaultPlan::none(),
            FaultPlan::lossy(5, 10, 10, 10),
            FaultPlan::crash(1, 100),
        ];
        for tcp in [false, true] {
            for strict in [false, true] {
                for plan in plans {
                    let mut b = Config::builder()
                        .machines(2)
                        .strict_distributed(strict)
                        .fault(plan);
                    if tcp {
                        b = b.transport(TransportConfig::tcp("127.0.0.1:7404", 0));
                    }
                    let case = format!("tcp {tcp}, strict {strict}, {plan:?}");
                    match b.build() {
                        Ok(c) => {
                            assert_eq!(c.reliable(), tcp || strict || plan.is_active(), "{case}")
                        }
                        Err(e) => {
                            assert!(tcp && plan.crash.is_some(), "{case}: {e}");
                            assert!(e.contains("crash fault plan"), "{case}: {e}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fault_plan_bounds_checked() {
        assert!(ConfigBuilder::from(Config::test(2))
            .fault(FaultPlan::crash(5, 1))
            .build()
            .is_err());
        assert!(ConfigBuilder::from(Config::test(2))
            .fault(FaultPlan::crash(1, 1))
            .build()
            .is_ok());
    }

    #[test]
    fn reliability_knobs_validated() {
        // Checked whether or not this configuration runs the protocol.
        let mut c = Config::test(2);
        assert!(!c.reliable() && c.validate().is_ok());
        c.reliability.rto_base_ms = RTO_MAX_MS + 1;
        assert!(c.validate().is_err());
        c.reliability = ReliabilityConfig::default();
        c.reliability.watchdog_ms = c.reliability.tick_ms;
        assert!(c.validate().is_err());
        c.reliability = ReliabilityConfig::default();
        c.reliability.tick_ms = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn recovery_knobs_validated() {
        let mut c = Config::test(2);
        c.recovery = RecoveryConfig::on();
        assert!(c.validate().is_ok());
        c.recovery.checkpoint_every = 0;
        assert!(c.validate().is_err());
        c.recovery = RecoveryConfig::on();
        c.recovery.max_retries = 0;
        assert!(c.validate().is_err());
        // Disabled recovery skips the knob checks entirely.
        c.recovery = RecoveryConfig::off();
        c.recovery.checkpoint_every = 0;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_recovery_setters_enable_recovery() {
        let c = Config::builder()
            .checkpoint_every(4)
            .max_retries(2)
            .build()
            .expect("valid recovery config");
        assert!(c.recovery.enabled);
        assert_eq!(c.recovery.checkpoint_every, 4);
        assert_eq!(c.recovery.max_retries, 2);
        assert!(Config::builder().checkpoint_every(0).build().is_err());
    }

    /// The crash-watchdog deadline travels in the `ReliabilityConfig`.
    #[test]
    fn builder_heartbeat_deadline_sets_watchdog() {
        let deadline = |watchdog_ms| {
            Config::builder()
                .reliability(ReliabilityConfig {
                    watchdog_ms,
                    ..ReliabilityConfig::default()
                })
                .build()
        };
        assert_eq!(deadline(120).expect("valid").reliability.watchdog_ms, 120);
        // The deadline is still validated against the tick interval.
        assert!(deadline(1).is_err());
    }

    #[test]
    fn builder_accepts_valid_tuning() {
        let c = Config::builder()
            .machines(3)
            .workers(2)
            .buffer_bytes(8 << 10)
            .build()
            .expect("valid config");
        assert_eq!(c.machines, 3);
        assert_eq!(c.buffer_bytes, 8 << 10);
    }

    /// The ghost threshold is `Some(0)` at every machine count, in both
    /// presets (the test one is what `pgxd::Engine::builder` returns); set,
    /// it survives either setter order.
    #[test]
    fn ghost_threshold_is_some_zero_unless_set() {
        for m in [1, 2, 3, 8] {
            assert_eq!(Config::test(m).ghost_threshold, Some(0), "{m} machines");
        }
        let test_preset = || ConfigBuilder::from(Config::test(2));
        for seed in [Config::builder, test_preset] {
            for m in [1, 2, 3, 8] {
                let c = seed().machines(m).build().unwrap();
                assert_eq!(c.ghost_threshold, Some(0), "{m} machines");
            }
            for t in [None, Some(7)] {
                let before = seed().ghost_threshold(t).machines(2).build();
                let after = seed().machines(2).ghost_threshold(t).build();
                assert_eq!(before.unwrap().ghost_threshold, t, "set before machines");
                assert_eq!(after.unwrap().ghost_threshold, t, "set after machines");
            }
        }
    }

    #[test]
    fn builder_rejects_zero_quotas() {
        assert!(Config::builder().workers(0).build().is_err());
        assert!(Config::builder().copiers(0).build().is_err());
        // The two pool fields have no setter; direct writers are validated.
        for (buffers, shards) in [(0, 4), (64, 0), (64, 4096)] {
            let c = Config {
                send_buffers_per_machine: buffers,
                pool_shards: shards,
                ..Config::default()
            };
            assert!(c.validate().is_err(), "{buffers} buffers, {shards} shards");
        }
    }

    #[test]
    fn serve_knobs_validated_and_built() {
        let c = Config::builder()
            .queue_depth(8)
            .memory_budget(1 << 20)
            .lane_weights([4, 1])
            .build()
            .expect("valid serve config");
        assert_eq!(c.serve.queue_depth, 8);
        assert_eq!(c.serve.memory_budget_bytes, 1 << 20);
        assert_eq!(c.serve.lane_weights, [4, 1]);
        assert!(Config::builder().queue_depth(0).build().is_err());
        assert!(Config::builder().lane_weights([0, 1]).build().is_err());
    }

    #[test]
    fn inert_fault_plan_is_inactive() {
        assert!(!FaultPlan::none().is_active());
        assert!(FaultPlan::lossy(3, 1, 0, 0).is_active());
        assert!(FaultPlan::crash(0, 10).is_active());
    }

    #[test]
    fn per_mille_rates_capped_at_1000() {
        // Wire plan: each rate field individually rejected above 1000‰.
        let mut c = Config::test(2);
        c.fault = FaultPlan::lossy(1, 1001, 0, 0);
        assert!(c.validate().unwrap_err().contains("per-mille"));
        c.fault = FaultPlan::lossy(1, 0, 1001, 0);
        assert!(c.validate().is_err());
        c.fault = FaultPlan::lossy(1, 0, 0, 1001);
        assert!(c.validate().is_err());
        c.fault = FaultPlan::lossy(1, 1000, 1000, 1000);
        assert!(c.validate().is_ok(), "1000‰ (always) is a legal rate");
        // Storage plan: same cap.
        let mut c = Config::test(2);
        c.recovery = RecoveryConfig::on();
        c.storage_fault = StorageFaultPlan::faulty(9, 1001, 0, 0);
        assert!(c.validate().unwrap_err().contains("per-mille"));
        c.storage_fault = StorageFaultPlan::faulty(9, 0, 2000, 0);
        assert!(c.validate().is_err());
        c.storage_fault = StorageFaultPlan::faulty(9, 100, 100, 100);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn active_storage_fault_requires_recovery() {
        let mut c = Config::test(2);
        c.storage_fault = StorageFaultPlan::faulty(5, 100, 0, 0);
        assert!(c.validate().unwrap_err().contains("recovery"));
        c.recovery = RecoveryConfig::on();
        assert!(c.validate().is_ok());
        // The builder enables recovery for an active plan.
        let c = Config::builder()
            .storage_fault(StorageFaultPlan::faulty(5, 0, 100, 0))
            .build()
            .expect("an active storage plan enables recovery");
        assert!(c.recovery.enabled);
        assert!(!StorageFaultPlan::none().is_active());
    }

    #[test]
    fn retention_and_flap_knobs_validated() {
        let mut c = Config::test(2);
        c.recovery = RecoveryConfig::on();
        c.recovery.retain = 0;
        assert!(c.validate().is_err());
        c.recovery = RecoveryConfig::on();
        c.recovery.flap_threshold = 0;
        assert!(c.validate().is_err());
        let c = Config::builder()
            .checkpoint_retain(3)
            .flap_threshold(2)
            .build()
            .expect("valid retention config");
        assert!(c.recovery.enabled);
        assert_eq!(c.recovery.retain, 3);
        assert_eq!(c.recovery.flap_threshold, 2);
    }

    #[test]
    fn brownout_and_retry_budget_validated() {
        let c = Config::builder()
            .brownout(750, 250)
            .retry_budget(4, 100)
            .build()
            .expect("valid brownout config");
        assert_eq!(c.serve.brownout_shed_per_mille, 750);
        assert_eq!(c.serve.brownout_reopen_per_mille, 250);
        assert_eq!(c.serve.retry_budget_tokens, 4);
        // No hysteresis (reopen >= shed) is rejected.
        assert!(Config::builder().brownout(500, 500).build().is_err());
        assert!(Config::builder().brownout(1500, 100).build().is_err());
        assert!(Config::builder().retry_budget(4, 0).build().is_err());
        // Defaults stay inert.
        let d = ServeConfig::default();
        assert_eq!(d.brownout_shed_per_mille, 0);
        assert_eq!(d.retry_budget_tokens, 0);
    }
}
