//! Automatic job recovery: retry-with-restore on machine loss.
//!
//! The [`RecoveryDriver`] wraps the engine's fallible job API in the one
//! attempt loop both deployment shapes run
//! ([`RecoveryDriver::run_with`]). Algorithms expose their iteration
//! structure through [`ResumableAlgorithm`] — `setup` registers properties
//! and seeds driver state, `step` runs exactly one barrier-delimited
//! iteration — and the driver does the rest: it takes a barrier-consistent
//! checkpoint right after `setup` (the iteration-0 baseline) and then every
//! `checkpoint_every` completed iterations, and when an attempt dies with
//! a transient [`JobError`] (machine loss), it
//!
//! 1. salvages the retained checkpoint *ring* (plain copied memory — never
//!    a view into the dead cluster) and takes the dead engine down,
//! 2. asks its [`EngineSource`] for the next attempt's engine — the only
//!    step that depends on the shape. In one process a [`FlapDetector`]
//!    decides: below the flap threshold the machine gets another chance at
//!    full cluster size; at the threshold it is quarantined and the next
//!    cluster is a *degraded* one over the `P−1` survivors. As a rank of a
//!    TCP cluster the dead peer is gone for good: the survivors renumber
//!    their ranks and re-bootstrap at a pre-agreed rendezvous address,
//! 3. re-runs the algorithm's `setup` (re-registering the same properties
//!    in the same order, so ids line up), then adopts (a collective: all
//!    processes agree on one checkpoint) and restores the newest ring entry
//!    that passes checksum verification — a corrupt newest checkpoint
//!    (injected storage fault, `StorageFaultPlan`) falls back to the
//!    next-older entry (`checkpoint_fallbacks` counter +
//!    `CheckpointFallback` trace), and if no entry is restorable the job
//!    cold-restarts from iteration 0 (`cold_restarts` + `ColdRestart`) —
//!    and resumes `step`ping from wherever that landed.
//!
//! Fatal errors (protocol violations) surface to the caller;
//! [`RetryPolicy`] draws the transient-vs-fatal line and paces retries
//! with seeded decorrelated-jitter backoff so concurrent tenants do not
//! synchronize into retry storms. An optional server-wide [`RetryBudget`]
//! is consulted before every retry; a dry bucket fails the job with
//! [`JobError::RetryBudgetExhausted`] instead of amplifying the outage.

use crate::engine::{Engine, EngineBuilder};
use pgxd_graph::Graph;
use pgxd_runtime::checkpoint::Checkpoint;
use pgxd_runtime::config::{Config, RecoveryConfig, WireFaultPlan};
use pgxd_runtime::health::{FlapDetector, JobError, RetryBudget};
use pgxd_runtime::ids::MachineId;
use pgxd_runtime::stats::StatsSnapshot;
use pgxd_runtime::telemetry::EventKind;
use pgxd_runtime::transport::WireCountersSnapshot;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// splitmix64, the same hash family the fault injectors use: one
/// independent 64-bit draw per `(seed, n)` pair, no RNG state to carry.
#[inline]
fn mix64(seed: u64, n: u64) -> u64 {
    let mut z = seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one [`ResumableAlgorithm::step`] call concluded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// More iterations remain.
    Continue,
    /// The algorithm converged (or hit its iteration cap).
    Done,
}

/// An algorithm decomposed into driver-visible iterations so the
/// [`RecoveryDriver`] can checkpoint between them and restart mid-job.
///
/// Contract: `setup` must be *re-runnable* — on every attempt it executes
/// on a fresh engine and must register the same properties in the same
/// order (that is what lets a restore re-bind shards by property id) and
/// re-seed any driver-side initial state. A subsequent restore overwrites
/// that state with the checkpointed values.
pub trait ResumableAlgorithm {
    /// What the finished job yields.
    type Output;

    /// Registers properties and seeds initial values on a fresh engine.
    fn setup(&mut self, engine: &mut Engine);

    /// Runs iteration `iteration` (0-based count of completed iterations).
    fn step(&mut self, engine: &mut Engine, iteration: u64) -> Result<StepOutcome, JobError>;

    /// Algorithm scalars to round-trip through checkpoints (RNG state,
    /// accumulated deltas, ...). Defaults to none — most algorithms keep
    /// every bit of mutable state in property vectors.
    fn scalars(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Reinstates [`ResumableAlgorithm::scalars`] after a restore.
    fn restore_scalars(&mut self, _scalars: &[u64]) {}

    /// Extracts the result from a converged engine.
    fn finish(&mut self, engine: &mut Engine) -> Self::Output;

    /// Runs the whole algorithm on `engine` — setup, every step, finish —
    /// with no checkpoints and no retry: how the `try_*` entry points run,
    /// and the fault-free reference the recovered runs are held to.
    /// `finish` runs after a failed step too: it is what releases the
    /// algorithm's columns, and the caller keeps the engine.
    fn run_to_completion(&mut self, engine: &mut Engine) -> Result<Self::Output, JobError> {
        self.setup(engine);
        let mut iteration = 0u64;
        let outcome = loop {
            match self.step(engine, iteration) {
                Ok(StepOutcome::Continue) => iteration += 1,
                Ok(StepOutcome::Done) => break Ok(()),
                Err(err) => break Err(err),
            }
        };
        let output = self.finish(engine);
        outcome.map(|()| output)
    }
}

/// `algo` with a script run ahead of every step: `before(attempt,
/// iteration)` (attempts count from 1) may linger, or return the error
/// that step is to die of. This is how harnesses inject failures and
/// pauses at chosen points — everything they then exercise (checkpoints,
/// restore, quarantine, re-bootstrap) is the production recovery path.
pub struct Scripted<A, F> {
    algo: A,
    before: F,
    attempt: u32,
}

impl<A, F> Scripted<A, F> {
    pub fn new(algo: A, before: F) -> Self {
        Scripted {
            algo,
            before,
            attempt: 0,
        }
    }
}

impl<A, F> ResumableAlgorithm for Scripted<A, F>
where
    A: ResumableAlgorithm,
    F: FnMut(u32, u64) -> Result<(), JobError>,
{
    type Output = A::Output;

    fn setup(&mut self, engine: &mut Engine) {
        self.attempt += 1;
        self.algo.setup(engine);
    }

    fn step(&mut self, engine: &mut Engine, iteration: u64) -> Result<StepOutcome, JobError> {
        (self.before)(self.attempt, iteration)?;
        self.algo.step(engine, iteration)
    }

    fn scalars(&self) -> Vec<u64> {
        self.algo.scalars()
    }

    fn restore_scalars(&mut self, scalars: &[u64]) {
        self.algo.restore_scalars(scalars);
    }

    fn finish(&mut self, engine: &mut Engine) -> A::Output {
        self.algo.finish(engine)
    }
}

/// When to retry and how long to wait: bounded attempts, seeded
/// decorrelated-jitter backoff, transient-vs-fatal classification of
/// [`JobError`].
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retries allowed after the initial attempt.
    pub max_retries: u32,
    /// Backoff floor, milliseconds.
    pub backoff_base_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub backoff_max_ms: u64,
    /// Seed for the decorrelated jitter draws; two policies with different
    /// seeds produce different (but individually deterministic) schedules,
    /// which is what keeps concurrent tenants from retrying in lockstep.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// The configured retry count over the stock backoff window (10 ms
    /// floor, 200 ms ceiling).
    pub fn from_config(rc: &RecoveryConfig) -> Self {
        RetryPolicy {
            max_retries: rc.max_retries,
            backoff_base_ms: 10,
            backoff_max_ms: 200,
            jitter_seed: 0x5eed_b0ff,
        }
    }

    /// Whether a `retry`-th retry (1-based) is allowed after `err`.
    /// Cancellations are never retried — the job was stopped on purpose,
    /// and replaying it would resurrect work the caller asked to kill.
    pub fn should_retry(&self, err: &JobError, retry: u32) -> bool {
        err.is_transient() && !err.is_cancellation() && retry <= self.max_retries
    }

    /// Backoff before the `retry`-th retry (1-based): decorrelated jitter
    /// (`sleep = min(cap, uniform(base, 3 * prev_sleep))`), deterministic
    /// in `(jitter_seed, retry)`. Pure doubling synchronizes concurrent
    /// tenants' retries into storms; the jittered schedule keeps the same
    /// expected growth (~2× per retry until the cap) while decorrelating
    /// the instants.
    pub fn backoff(&self, retry: u32) -> Duration {
        let base = self.backoff_base_ms;
        if base == 0 || retry == 0 {
            return Duration::ZERO;
        }
        let cap = self.backoff_max_ms.max(base);
        let mut sleep = base;
        for i in 1..=retry.min(64) {
            let span = sleep
                .saturating_mul(3)
                .saturating_sub(base)
                .saturating_add(1);
            sleep = base
                .saturating_add(mix64(self.jitter_seed, u64::from(i)) % span)
                .min(cap);
        }
        Duration::from_millis(sleep)
    }
}

/// A successfully recovered (or never-failed) job, with the recovery
/// footprint the attempt loop observed.
#[derive(Debug)]
pub struct Recovered<T> {
    /// The algorithm's result.
    pub output: T,
    /// Attempts run (1 = the job never failed).
    pub attempts: u32,
    /// Retry attempts that successfully restored/restarted and resumed.
    pub recoveries: u32,
    /// Size of the cluster that finished the job (smaller than it started
    /// when machines were excluded on the way).
    pub machines: usize,
    /// `RecoveryDone` trace events present in the final engine's ring
    /// (nonzero only with telemetry enabled and ≥1 recovery).
    pub recovery_done_events: u64,
    /// Stats accumulated across *all* attempts, failed ones included —
    /// `checkpoints_taken` / `checkpoint_bytes` / `restores_applied` live
    /// here. This process's machines only.
    pub stats: StatsSnapshot,
    /// Wire-repair counters accumulated the same way (all zero on the
    /// in-memory backend, which has no wire to repair).
    pub wire: WireCountersSnapshot,
}

/// Where each attempt's engine comes from: the one thing the two
/// deployment shapes do differently. Everything else — setup, adoption,
/// restore with ring fallback, checkpoints, stepping, retry policy — is
/// [`RecoveryDriver::run_with`], whatever the source.
pub trait EngineSource {
    /// Builds the next attempt's engine.
    fn build(&mut self) -> Result<Engine, String>;

    /// The last-built engine died of `err` and is gone; decides how the
    /// next one is built. `Ok(Some(m))` means machine `m` is excluded from
    /// now on and the next cluster is a degraded one; `Err` gives up.
    fn next_attempt(&mut self, err: &JobError) -> Result<Option<MachineId>, JobError>;
}

/// All machines in this process: a failed attempt is followed by a fresh
/// in-memory cluster, one machine smaller once the [`FlapDetector`]
/// quarantines a repeat offender — `Cluster::load` then re-runs edge
/// partitioning and ghost selection over the survivors.
struct InProcess<'g> {
    graph: &'g Graph,
    config: Config,
    flap: FlapDetector,
}

impl EngineSource for InProcess<'_> {
    fn build(&mut self) -> Result<Engine, String> {
        EngineBuilder::from_config(self.config.clone()).build(self.graph)
    }

    fn next_attempt(&mut self, err: &JobError) -> Result<Option<MachineId>, JobError> {
        // The one-shot crash plan already fired and must not kill the
        // retry at the same virtual instant.
        self.config.fault.crash = None;
        match *err {
            JobError::MachineDown { machine } if self.flap.record_trip(machine) => {
                // Quarantined: degrade to the survivor set proactively.
                if self.config.machines <= 1 {
                    return Err(err.clone());
                }
                self.config.machines -= 1;
                Ok(Some(machine))
            }
            // Below the flap threshold (or not a crash at all): the next
            // attempt runs at full cluster size.
            _ => Ok(None),
        }
    }
}

/// One rank of a TCP cluster: a dead peer is followed by re-bootstrapping
/// the survivors. The protocol is SPMD like everything else: every
/// survivor observes the same `MachineDown { dead }` (watchdog
/// first-error-wins plus the coordinator's Abort broadcast), so every
/// survivor computes the same degraded membership — one machine fewer, own
/// rank decremented when above the dead one — and meets the others at the
/// pre-agreed rendezvous address, where the new rank 0 binds.
struct Rendezvous<'g, F> {
    graph: &'g Graph,
    config: Config,
    recover_coord: &'g str,
    /// Told rank 0's bound address at the first bootstrap; recovery meets
    /// at a concrete address and needs no announcement.
    announce: Option<F>,
}

impl<F: FnOnce(&str)> EngineSource for Rendezvous<'_, F> {
    fn build(&mut self) -> Result<Engine, String> {
        let announce = self.announce.take();
        EngineBuilder::from_config(self.config.clone()).build_rank(self.graph, |addr| {
            if let Some(announce) = announce {
                announce(addr)
            }
        })
    }

    fn next_attempt(&mut self, err: &JobError) -> Result<Option<MachineId>, JobError> {
        let transport = &mut self.config.transport;
        let rank = transport.rank.unwrap_or(0);
        match *err {
            // The watchdog blames *this* rank when every peer went silent
            // at once: it is the partitioned side, and nobody will meet it
            // at the rendezvous.
            JobError::MachineDown { machine: dead }
                if dead != rank && !self.recover_coord.is_empty() =>
            {
                self.config.machines -= 1;
                transport.rank = Some(rank - u16::from(rank > dead));
                transport.coord_addr = Some(self.recover_coord.to_string());
                // The rebuilt cluster must converge undisturbed.
                self.config.wire_fault = WireFaultPlan::none();
                Ok(Some(dead))
            }
            _ => Err(err.clone()),
        }
    }
}

/// Drives a [`ResumableAlgorithm`] to completion across machine failures.
pub struct RecoveryDriver<'g> {
    graph: &'g Graph,
    config: Config,
    retry_budget: Option<Arc<RetryBudget>>,
}

impl<'g> RecoveryDriver<'g> {
    /// Validates `config` up front so knob errors surface before any
    /// cluster is built.
    pub fn new(graph: &'g Graph, config: Config) -> Result<Self, String> {
        config.validate()?;
        Ok(RecoveryDriver {
            graph,
            config,
            retry_budget: None,
        })
    }

    /// Shares a server-wide retry token bucket with this driver: every
    /// retry first takes a token, and a dry bucket fails the job with
    /// [`JobError::RetryBudgetExhausted`] instead of piling a retry storm
    /// onto an already-degraded cluster. Without a budget retries are
    /// gated only by `max_retries`.
    pub fn with_retry_budget(mut self, budget: Arc<RetryBudget>) -> Self {
        self.retry_budget = Some(budget);
        self
    }

    /// The (validated) configuration attempts start from.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Runs `algo` to completion on in-process clusters, retrying per the
    /// configured [`RecoveryConfig`]. With recovery disabled this is
    /// exactly one attempt with no checkpoints — a failure surfaces
    /// unchanged.
    pub fn run<A: ResumableAlgorithm>(
        &self,
        algo: &mut A,
    ) -> Result<Recovered<A::Output>, JobError> {
        let recovery = &self.config.recovery;
        let mut source = InProcess {
            graph: self.graph,
            config: self.config.clone(),
            flap: FlapDetector::new(self.config.machines, recovery.flap_threshold),
        };
        self.run_with(&mut source, algo)
    }

    /// [`RecoveryDriver::run`] as one rank of a TCP cluster (the config
    /// names the rank and the coordinator; see
    /// [`EngineBuilder::build_rank`] for `announce`). Every rank calls it
    /// with the same algorithm. When a peer dies the survivors re-bootstrap
    /// at `recover_coord` as a cluster one machine smaller; with an empty
    /// `recover_coord` the death is final.
    pub fn run_rank<A: ResumableAlgorithm>(
        &self,
        recover_coord: &str,
        announce: impl FnOnce(&str),
        algo: &mut A,
    ) -> Result<Recovered<A::Output>, JobError> {
        let mut source = Rendezvous {
            graph: self.graph,
            config: self.config.clone(),
            recover_coord,
            announce: Some(announce),
        };
        self.run_with(&mut source, algo)
    }

    /// The recovery loop: build → setup → (after a failure) adopt and
    /// restore with ring fallback → baseline checkpoint → step, with a
    /// checkpoint every `checkpoint_every` iterations → on failure salvage
    /// the ring and ask `source` for the next attempt.
    pub fn run_with<A: ResumableAlgorithm>(
        &self,
        source: &mut impl EngineSource,
        algo: &mut A,
    ) -> Result<Recovered<A::Output>, JobError> {
        let recovery = self.config.recovery;
        let policy = RetryPolicy::from_config(&recovery);
        let mut carry: Vec<Arc<Checkpoint>> = Vec::new();
        let mut excluded: Option<MachineId> = None;
        let mut attempts = 0u32;
        let mut recoveries = 0u32;
        let mut stats = StatsSnapshot::default();
        let mut wire = WireCountersSnapshot::default();
        loop {
            attempts += 1;
            let mut engine = source.build().map_err(JobError::Protocol)?;
            algo.setup(&mut engine);
            let mut iteration = 0u64;
            let mut failure: Option<JobError> = None;
            if attempts > 1 {
                match resume(&mut engine, algo, &carry, attempts - 1, excluded.take()) {
                    Ok(resumed_at) => {
                        iteration = resumed_at;
                        recoveries += 1;
                    }
                    Err(err) => failure = Some(err),
                }
            }
            let checkpoint = |engine: &mut Engine, iteration: u64, algo: &A| {
                if recovery.enabled {
                    engine.take_checkpoint(iteration, algo.scalars()).err()
                } else {
                    None
                }
            };
            // Baseline checkpoint of the freshly seeded (or just-restored)
            // state: a crash during the very first iterations then restores
            // instead of restarting from scratch, no matter when the fault
            // fires relative to the periodic cadence.
            if failure.is_none() {
                failure = checkpoint(&mut engine, iteration, algo);
            }
            while failure.is_none() {
                match algo.step(&mut engine, iteration) {
                    Ok(StepOutcome::Done) => break,
                    Ok(StepOutcome::Continue) => {
                        iteration += 1;
                        if iteration.is_multiple_of(recovery.checkpoint_every) {
                            failure = checkpoint(&mut engine, iteration, algo);
                        }
                    }
                    Err(err) => failure = Some(err),
                }
            }
            let Some(err) = failure else {
                let recovery_done_events = count_recovery_done(&engine);
                let output = algo.finish(&mut engine);
                // No process tears its engine down while a peer is still
                // inside `finish`'s collectives.
                engine.cluster().node_barrier()?;
                stats = stats + engine.cluster().total_stats();
                wire += engine.wire_counters().unwrap_or_default();
                return Ok(Recovered {
                    output,
                    attempts,
                    recoveries,
                    machines: engine.num_machines(),
                    recovery_done_events,
                    stats,
                    wire,
                });
            };
            // Salvage the retained checkpoint ring (plain copied memory,
            // never a view into the dead cluster) and the dead attempt's
            // counters, then take the engine down without goodbyes: to its
            // peers a process that abandons a job must look dead, not
            // departed, or they would wait for it forever.
            let ring = engine.checkpoint_ring();
            if !ring.is_empty() {
                carry = ring;
            }
            stats = stats + engine.cluster().total_stats();
            wire += engine.wire_counters().unwrap_or_default();
            engine.sever_transport();
            drop(engine);
            if !recovery.enabled {
                return Err(err);
            }
            let retry = attempts; // 1-based index of the retry we want next
            if !policy.should_retry(&err, retry) {
                if err.is_transient() {
                    return Err(JobError::RetriesExhausted {
                        attempts,
                        last: Box::new(err),
                    });
                }
                return Err(err);
            }
            // Every retry spends one token of the (possibly server-wide,
            // cross-session) budget; a dry bucket means the cluster is
            // already saturated with recovery work, so amplifying it would
            // turn one failure into an outage.
            if let Some(budget) = &self.retry_budget {
                if !budget.try_acquire() {
                    return Err(JobError::RetryBudgetExhausted);
                }
            }
            excluded = source.next_attempt(&err)?;
            std::thread::sleep(policy.backoff(retry));
        }
    }
}

/// Brings a freshly set-up engine back to where the failed attempts got:
/// adopts and restores the newest ring entry that verifies, skipping
/// corrupt ones (injected storage faults keep the stale checksum, so this
/// is where they finally surface: `checkpoint_fallbacks` and a
/// `CheckpointFallback` event). If nothing in the ring is restorable — or
/// the ring is empty — the job cold-restarts from iteration 0
/// (`cold_restarts`, `ColdRestart`); still a recovery, the rebuilt cluster
/// replaces the dead one. Returns the iteration to resume from.
fn resume<A: ResumableAlgorithm>(
    engine: &mut Engine,
    algo: &mut A,
    mut ring: &[Arc<Checkpoint>],
    retry: u32,
    excluded: Option<MachineId>,
) -> Result<u64, JobError> {
    let stats = engine.cluster().machine(0).stats.clone();
    let trace = |engine: &Engine, kind, arg| engine.cluster().trace_driver_event(kind, arg);
    trace(engine, EventKind::RecoveryStart, u64::from(retry));
    if let Some(machine) = excluded {
        stats.machines_quarantined.fetch_add(1, Ordering::Relaxed);
        trace(engine, EventKind::Quarantine, u64::from(machine));
    }
    let mut tried = 0u64;
    let iteration = loop {
        let Some(ck) = adopt_checkpoint(engine, ring)? else {
            stats.cold_restarts.fetch_add(1, Ordering::Relaxed);
            trace(engine, EventKind::ColdRestart, tried);
            break 0;
        };
        tried += 1;
        match engine.restore_checkpoint(&ck) {
            Ok(()) => {
                algo.restore_scalars(&ck.progress.scalars);
                break ck.progress.iteration;
            }
            Err(JobError::CheckpointCorrupt(_)) => {
                stats.checkpoint_fallbacks.fetch_add(1, Ordering::Relaxed);
                trace(engine, EventKind::CheckpointFallback, ck.seq);
                // Only strictly older entries remain candidates.
                let older = ring.iter().position(|c| c.seq < ck.seq);
                ring = &ring[older.unwrap_or(ring.len())..];
            }
            Err(other) => return Err(other),
        }
    };
    trace(engine, EventKind::RecoveryDone, iteration);
    Ok(iteration)
}

/// Checkpoint adoption: a *collective* run before each restore. Every
/// process salvaged its own checkpoint ring (newest first) from the dead
/// engine, and the rings can disagree — a crash racing `take_checkpoint`
/// lets some ranks finish the shard exchange while others abort. Every
/// process offers its newest entry; the winner is the highest sequence
/// number, ties going to the lowest rank. All processes hold the same
/// winning bytes afterwards, so the follow-up collective
/// [`Engine::restore_checkpoint`] sees the identical checkpoint — and
/// reaches the identical verdict on it — everywhere. `Ok(None)` means
/// nobody has anything to offer: the callers cold-restart in lockstep. With
/// every machine in one process the exchange is the identity and this is
/// simply the ring's newest entry.
fn adopt_checkpoint(
    engine: &Engine,
    ring: &[Arc<Checkpoint>],
) -> Result<Option<Arc<Checkpoint>>, JobError> {
    let offers = engine.cluster().exchange(ring.first().cloned())?;
    // `max_by_key` keeps the *last* maximum; reversed, that is the lowest rank.
    Ok(offers.into_iter().flatten().rev().max_by_key(|ck| ck.seq))
}

fn count_recovery_done(engine: &Engine) -> u64 {
    engine
        .cluster()
        .telemetries()
        .first()
        .map(|t| {
            t.worker_events(0)
                .iter()
                .filter(|e| e.kind == EventKind::RecoveryDone)
                .count() as u64
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::Prop;
    use crate::spec::JobSpec;
    use crate::tasks;
    use pgxd_graph::generate;
    use pgxd_runtime::config::{StorageFaultKind, StorageFaultPlan};
    use pgxd_runtime::props::ReduceOp;

    #[test]
    fn backoff_jitters_within_bounds() {
        let p = RetryPolicy {
            max_retries: 5,
            backoff_base_ms: 10,
            backoff_max_ms: 50,
            jitter_seed: 42,
        };
        // Every draw stays within [base, cap], deterministically.
        for retry in 1..=30 {
            let d = p.backoff(retry);
            assert!(d >= Duration::from_millis(10), "retry {retry}: {d:?}");
            assert!(d <= Duration::from_millis(50), "retry {retry}: {d:?}");
            assert_eq!(d, p.backoff(retry), "same (seed, retry) ⇒ same delay");
        }
        // Different seeds decorrelate: the schedules are not identical.
        let q = RetryPolicy {
            jitter_seed: 43,
            ..p
        };
        assert!(
            (1..=30).any(|r| p.backoff(r) != q.backoff(r)),
            "two seeds should not produce lockstep schedules"
        );
        // Jitter actually jitters: the schedule is not one constant value.
        let first = p.backoff(1);
        assert!(
            (1..=30).any(|r| p.backoff(r) != first),
            "schedule collapsed to a constant"
        );
        assert_eq!(p.backoff(0), Duration::ZERO);
    }

    #[test]
    fn classification_gates_retries() {
        let p = RetryPolicy {
            max_retries: 2,
            backoff_base_ms: 1,
            backoff_max_ms: 1,
            jitter_seed: 0,
        };
        let down = JobError::MachineDown { machine: 0 };
        assert!(p.should_retry(&down, 1));
        assert!(p.should_retry(&down, 2));
        assert!(!p.should_retry(&down, 3));
        assert!(!p.should_retry(&JobError::Protocol("x".into()), 1));
        assert!(!p.should_retry(&JobError::CheckpointCorrupt("x".into()), 1));
    }

    #[test]
    fn cancellations_are_never_retried() {
        let p = RetryPolicy {
            max_retries: 5,
            backoff_base_ms: 1,
            backoff_max_ms: 1,
            jitter_seed: 0,
        };
        assert!(!p.should_retry(&JobError::Cancelled { job: 7 }, 1));
        assert!(!p.should_retry(&JobError::DeadlineExceeded { job: 7 }, 1));
    }

    /// Adds 1 to every vertex per iteration for a fixed count — all state
    /// in one property, plus one scalar to exercise the scalar round-trip.
    struct CountUp {
        rounds: u64,
        total: Prop<i64>,
        steps_seen: u64,
    }

    impl ResumableAlgorithm for CountUp {
        type Output = Vec<i64>;

        fn setup(&mut self, engine: &mut Engine) {
            self.total = engine.add_prop("total", 0i64);
            self.steps_seen = 0;
        }

        fn step(&mut self, engine: &mut Engine, iteration: u64) -> Result<StepOutcome, JobError> {
            if iteration >= self.rounds {
                return Ok(StepOutcome::Done);
            }
            let total = self.total;
            engine.try_run_node_job(
                &JobSpec::new().reduce(total, ReduceOp::Sum),
                tasks::on_node(move |ctx| {
                    let cur: i64 = ctx.get(total);
                    ctx.set(total, cur + 1);
                }),
            )?;
            self.steps_seen += 1;
            Ok(StepOutcome::Continue)
        }

        fn scalars(&self) -> Vec<u64> {
            vec![self.steps_seen]
        }

        fn restore_scalars(&mut self, scalars: &[u64]) {
            self.steps_seen = scalars[0];
        }

        fn finish(&mut self, engine: &mut Engine) -> Vec<i64> {
            engine.gather(self.total)
        }
    }

    #[test]
    fn fault_free_run_is_single_attempt() {
        let g = generate::ring(24);
        let config = Config::builder()
            .machines(2)
            .workers(1)
            .copiers(1)
            .checkpoint_every(2)
            .build()
            .unwrap();
        let driver = RecoveryDriver::new(&g, config).unwrap();
        let mut algo = CountUp {
            rounds: 5,
            total: Prop::new(pgxd_runtime::props::PropId(0)),
            steps_seen: 0,
        };
        let rec = driver.run(&mut algo).unwrap();
        assert_eq!(rec.output, vec![5i64; 24]);
        assert_eq!(rec.attempts, 1);
        assert_eq!(rec.recoveries, 0);
        // Baseline snapshot at iteration 0 plus checkpoint_every=2 over 5
        // iterations (snapshots at 2 and 4), on both machines.
        assert_eq!(rec.stats.checkpoints_taken, 3 * 2);
        assert!(rec.stats.checkpoint_bytes > 0);
        assert_eq!(rec.stats.restores_applied, 0);
    }

    #[test]
    fn recovery_off_takes_no_checkpoints() {
        let g = generate::ring(24);
        let driver = RecoveryDriver::new(&g, Config::test(2)).unwrap();
        let mut algo = CountUp {
            rounds: 3,
            total: Prop::new(pgxd_runtime::props::PropId(0)),
            steps_seen: 0,
        };
        let rec = driver.run(&mut algo).unwrap();
        assert_eq!(rec.output, vec![3i64; 24]);
        assert_eq!(rec.stats.checkpoints_taken, 0);
    }

    /// An engine source that follows a script: attempt `k` is built from
    /// `configs[k]` (the last one from then on), all in one process, and a
    /// failure changes nothing.
    struct ScriptedSource<'g> {
        graph: &'g Graph,
        configs: Vec<Config>,
        built: usize,
    }

    impl EngineSource for ScriptedSource<'_> {
        fn build(&mut self) -> Result<Engine, String> {
            let config = self.configs[self.built.min(self.configs.len() - 1)].clone();
            self.built += 1;
            EngineBuilder::from_config(config).build(self.graph)
        }

        fn next_attempt(&mut self, _err: &JobError) -> Result<Option<MachineId>, JobError> {
            Ok(None)
        }
    }

    /// Drives the shared loop through a scripted source: attempt 1 runs on
    /// `first` and dies of `MachineDown` before iteration `fail_at`, attempt
    /// 2 runs on a clean cluster. Checkpoints are taken every iteration.
    fn recover_from(first: StorageFaultPlan, fail_at: u64) -> Recovered<Vec<i64>> {
        let g = generate::ring(24);
        let clean = Config::builder()
            .machines(2)
            .workers(1)
            .copiers(1)
            .checkpoint_every(1);
        let driver = RecoveryDriver::new(&g, clean.clone().build().unwrap()).unwrap();
        let mut source = ScriptedSource {
            graph: &g,
            configs: vec![
                clean.clone().storage_fault(first).build().unwrap(),
                clean.build().unwrap(),
            ],
            built: 0,
        };
        let count_up = CountUp {
            rounds: 4,
            total: Prop::new(pgxd_runtime::props::PropId(0)),
            steps_seen: 0,
        };
        let mut algo = Scripted::new(count_up, |attempt, iteration| {
            if (attempt, iteration) == (1, fail_at) {
                return Err(JobError::MachineDown { machine: 1 });
            }
            Ok(())
        });
        let rec = driver.run_with(&mut source, &mut algo).unwrap();
        assert_eq!(rec.output, vec![4i64; 24], "every round counted once");
        assert_eq!(algo.algo.steps_seen, 4, "the scalar followed the restore");
        assert_eq!((rec.attempts, rec.recoveries, rec.machines), (2, 1, 2));
        rec
    }

    #[test]
    fn corrupt_newest_ring_entry_falls_back_once() {
        // Every store draws from the same plan, once per save: the baseline
        // (sequence 1) is stored, the iteration-1 checkpoint is corrupted.
        let plan = (0..100_000)
            .map(|seed| StorageFaultPlan::faulty(seed, 0, 500, 0))
            .find(|p| {
                p.draw(0) == StorageFaultKind::Store && p.draw(1) == StorageFaultKind::Corrupt
            })
            .unwrap();
        // Dies before iteration 1 runs, with both checkpoints in the ring:
        // the newest fails its checksums, the baseline restores.
        let rec = recover_from(plan, 1);
        assert_eq!(rec.stats.checkpoint_fallbacks, 1);
        assert_eq!(rec.stats.cold_restarts, 0);
        assert_eq!(rec.stats.restores_applied, 2, "once, on both machines");
    }

    #[test]
    fn empty_ring_cold_restarts() {
        // Every shard write is lost: no sequence is ever durably complete,
        // nothing enters the ring, and the retry starts over.
        let rec = recover_from(StorageFaultPlan::faulty(7, 1000, 0, 0), 2);
        assert_eq!(rec.stats.cold_restarts, 1);
        assert_eq!(rec.stats.checkpoint_fallbacks, 0);
        assert_eq!(rec.stats.restores_applied, 0);
        assert!(rec.stats.ckpt_shards_lost > 0);
    }
}
