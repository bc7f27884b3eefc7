//! The job server: sessions, the dispatcher thread, and job handles.
//!
//! One [`JobServer`] owns one engine (a loaded graph). Clients open
//! [`Session`]s and submit jobs — closures over the engine — which the
//! server queues through the [`Scheduler`], admission-checks against the
//! memory budget, and runs one at a time on a dedicated dispatcher thread
//! (jobs are barrier-delimited parallel regions; the cluster executes one
//! region at a time, so dispatch order *is* the schedule).
//!
//! **Session namespaces.** Property ids are assigned sequentially and
//! never reused, so concurrent sessions cannot collide. The server diffs
//! the live-property set around each job and attributes new columns to
//! the submitting session; closing the session (or cancelling the job
//! mid-flight) reclaims them.
//!
//! **Cancellation.** [`JobHandle::cancel`] fires the job's
//! [`CancelToken`] and, if the job is still queued, fails it immediately
//! with [`JobError::Cancelled`]. A running job observes the token within
//! one chunk, finishes its phase at the normal barrier, and surfaces the
//! same error — the cluster stays healthy for the next job.
//!
//! **Deadlines.** A deadline is armed at submit time, so queue wait
//! counts against it: an expired job is failed with
//! [`JobError::DeadlineExceeded`] at dispatch if it never started, or
//! cooperatively mid-run if it did.
//!
//! **Brownout.** When queue occupancy crosses the configured shed
//! threshold, batch-lane submissions are refused with
//! [`JobError::Overloaded`] (carrying a retry-after hint) until
//! occupancy drains below the lower reopen threshold — hysteresis keeps
//! the gate from flapping at the boundary. The interactive lane stays
//! live throughout: brownout protects latency under pressure, it does
//! not replace the hard queue bound ([`JobError::QueueFull`] still
//! backstops both lanes).
//!
//! **Retry budget.** The server owns one [`RetryBudget`] token bucket,
//! shared by every session and handed (via [`JobServer::retry_budget`])
//! to recovery drivers, so concurrent tenants cannot amplify a degraded
//! cluster's failure into a retry storm.

use crate::admission::estimate_bytes;
use crate::scheduler::{JobMeta, Lane, Scheduler};
use crate::ServeEngine;
use parking_lot::{Condvar, Mutex};
use pgxd_runtime::cancel::{CancelReason, CancelToken};
use pgxd_runtime::config::ServeConfig;
use pgxd_runtime::health::{panic_message, JobError, RetryBudget};
use pgxd_runtime::jobctx::{JobCtx, JobExec, JobOutcome, PhaseSpan};
use pgxd_runtime::props::PropId;
use pgxd_runtime::telemetry::{EventKind, Telemetry};
use std::any::Any;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Most jobs one session may have in flight (dispatched, not yet
/// completed); a queued job whose session is at the cap is skipped — not
/// dropped — until a slot frees up.
const SESSION_CAP: usize = 16;

/// Retry-after hint carried by `JobError::Overloaded` rejections.
const BROWNOUT_RETRY_AFTER_MS: u64 = 50;

type JobResult = Result<Box<dyn Any + Send>, JobError>;
type BoxedJob<E> = Box<dyn FnOnce(&mut E, &CancelToken) -> JobResult + Send>;
/// What the dispatcher sends back per job: the typed result plus the
/// completion report (`None` for jobs failed before dispatch).
type JobCompletion = (JobResult, Option<JobReport>);

/// A job waiting in the scheduler.
struct QueuedJob<E> {
    run: BoxedJob<E>,
    token: CancelToken,
    tx: mpsc::Sender<JobCompletion>,
    submitted: Instant,
    /// Submit timestamp on the engine's telemetry clock, for the queued
    /// span in trace exports (0 with telemetry off).
    enqueue_ns: u64,
    /// Rendered execution plan for compiled (query) jobs, threaded into
    /// the completion report so traces show what the job lowered to.
    plan: Option<Arc<str>>,
}

/// Completion report for one served job: where its time went and what it
/// cost the cluster. Returned by [`JobHandle::join_with_report`].
///
/// The wall-clock fields (`queue_wait`, `run`) are always measured; the
/// breakdown and wire attribution come from the engine's [`JobExec`]
/// record and are zero when the engine doesn't track one (mock engines,
/// or telemetry disabled).
#[derive(Clone, Debug)]
pub struct JobReport {
    /// Server-assigned job id.
    pub job: u64,
    /// Owning session.
    pub session: u64,
    pub lane: Lane,
    /// Time from submit to dispatch.
    pub queue_wait: Duration,
    /// Time the job body held the cluster.
    pub run: Duration,
    pub outcome: JobOutcome,
    /// The engine's per-job attribution record, when tracked.
    pub exec: Option<JobExec>,
    /// The optimized execution plan the job was submitted with
    /// ([`Session::submit_with_plan`]) — `None` for hand-written jobs.
    /// Compiled queries attach their rendered plan here so `repro` traces
    /// show what a query lowered to.
    pub plan: Option<Arc<str>>,
}

impl JobReport {
    fn exec_secs(&self, pick: fn(&JobExec) -> f64) -> Duration {
        self.exec
            .as_ref()
            .map(|e| Duration::from_secs_f64(pick(e).max(0.0)))
            .unwrap_or_default()
    }

    /// Fully-parallel compute time across the job's parallel regions.
    pub fn compute(&self) -> Duration {
        self.exec_secs(|e| e.compute_s)
    }

    /// Communication time (intra- + inter-machine message work).
    pub fn comm(&self) -> Duration {
        self.exec_secs(|e| e.comm_s)
    }

    /// Post-task message-drain time.
    pub fn drain(&self) -> Duration {
        self.exec_secs(|e| e.drain_s)
    }

    /// Time spent taking checkpoints inside the job.
    pub fn checkpoint(&self) -> Duration {
        self.exec_secs(|e| e.checkpoint_s)
    }

    /// Payload bytes the cluster sent while the job held it.
    pub fn wire_bytes(&self) -> u64 {
        self.exec.as_ref().map_or(0, |e| e.traffic.bytes_sent)
    }

    /// Messages the cluster sent while the job held it.
    pub fn wire_msgs(&self) -> u64 {
        self.exec.as_ref().map_or(0, |e| e.traffic.msgs_sent)
    }

    /// Phase spans (with per-phase barrier residence), execution order.
    pub fn phases(&self) -> &[PhaseSpan] {
        self.exec.as_ref().map_or(&[], |e| e.phases.as_slice())
    }
}

struct State<E> {
    sched: Scheduler,
    /// Closures and completion channels of queued jobs, by id.
    queued: HashMap<u64, QueuedJob<E>>,
    /// Columns each session's finished jobs created.
    session_props: HashMap<u64, Vec<PropId>>,
    /// Sessions closed since the dispatcher last ran reclamation.
    retired_sessions: Vec<u64>,
    next_job: u64,
    shutdown: bool,
    /// Brownout gate: set when occupancy crossed the shed threshold,
    /// cleared once it drains below the reopen threshold.
    browned_out: bool,
}

struct Shared<E> {
    state: Mutex<State<E>>,
    cv: Condvar,
    config: ServeConfig,
    telemetry: Arc<Telemetry>,
    /// Column bytes etc. of the loaded graph — static for the engine's
    /// lifetime, snapshotted so submit-time admission checks need no
    /// engine access.
    base_profile: crate::MemProfile,
    /// Server-wide retry token bucket (capacity 0 = unbudgeted).
    retry_budget: Arc<RetryBudget>,
}

impl<E> Shared<E> {
    fn fail_job(&self, job: u64, qj: QueuedJob<E>, err: JobError) {
        let stats = self.telemetry.stats();
        match &err {
            JobError::DeadlineExceeded { .. } => {
                stats.jobs_deadline_missed.fetch_add(1, Ordering::Relaxed);
                stats.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
            }
            JobError::Cancelled { .. } => {
                stats.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                stats.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            }
        }
        if err.is_cancellation() {
            self.telemetry.trace(0, EventKind::JobCancel, job);
        }
        let _ = qj.tx.send((Err(err), None));
    }
}

/// What the dispatcher pulled out of the shared state to act on.
enum Work<E> {
    Run { meta: JobMeta, qj: QueuedJob<E> },
    Reclaim(Vec<PropId>),
    Shutdown,
}

/// Typed handle to one submitted job.
pub struct JobHandle<T> {
    job: u64,
    token: CancelToken,
    rx: mpsc::Receiver<JobCompletion>,
    /// Type-erased hook that removes the job from the queue on cancel.
    cancel_queued: Arc<dyn Fn(u64) + Send + Sync>,
    _result: PhantomData<fn() -> T>,
}

impl<T> std::fmt::Debug for JobHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle").field("job", &self.job).finish()
    }
}

impl<T: 'static> JobHandle<T> {
    /// The server-assigned job id.
    pub fn id(&self) -> u64 {
        self.job
    }

    /// The job's cancellation token (cloneable; useful for wiring
    /// external timeouts).
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// Requests cancellation: a queued job fails immediately, a running
    /// job within one chunk. Idempotent.
    pub fn cancel(&self) {
        self.token.cancel();
        (self.cancel_queued)(self.job);
    }

    /// Blocks until the job finishes (or fails) and returns its result.
    pub fn join(self) -> Result<T, JobError> {
        self.join_with_report().0
    }

    /// [`JobHandle::join`] plus the job's completion report: queue-wait /
    /// compute / comm / drain / checkpoint breakdown, per-phase barrier
    /// times, and the wire traffic attributed to the job. The report is
    /// `None` for jobs that never dispatched (cancelled in the queue,
    /// admission-denied, server shutdown).
    pub fn join_with_report(self) -> (Result<T, JobError>, Option<JobReport>) {
        match self.rx.recv() {
            Ok((result, report)) => (Self::downcast(result), report),
            Err(_) => (Err(JobError::Protocol("job server shut down".into())), None),
        }
    }

    fn downcast(result: JobResult) -> Result<T, JobError> {
        result.map(|boxed| {
            *boxed
                .downcast::<T>()
                .expect("job result type matches the submit closure")
        })
    }
}

/// A client's named handle onto the server. Dropping (or
/// [`Session::close`]-ing) it cancels the session's queued jobs and
/// reclaims every property column its jobs created.
pub struct Session<E: ServeEngine> {
    shared: Arc<Shared<E>>,
    id: u64,
    name: String,
    closed: bool,
}

impl<E: ServeEngine> Session<E> {
    /// The server-assigned session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Submits a job with no deadline.
    ///
    /// `props` is the number of property columns the job expects to
    /// create — the admission-control input. `f` runs on the dispatcher
    /// thread with exclusive engine access; thread the token into
    /// `try_run_*_with` calls so cancellation can interrupt phases.
    pub fn submit<T, F>(&self, lane: Lane, props: usize, f: F) -> Result<JobHandle<T>, JobError>
    where
        T: Send + 'static,
        F: FnOnce(&mut E, &CancelToken) -> Result<T, JobError> + Send + 'static,
    {
        self.submit_inner(lane, props, None, None, f)
    }

    /// [`Session::submit`] for compiled work: attaches a rendered
    /// execution plan that travels into the completion [`JobReport`]
    /// (`report.plan`), so traces show what a declarative query compiled
    /// to.
    pub fn submit_with_plan<T, F>(
        &self,
        lane: Lane,
        props: usize,
        deadline: Option<Duration>,
        plan: Arc<str>,
        f: F,
    ) -> Result<JobHandle<T>, JobError>
    where
        T: Send + 'static,
        F: FnOnce(&mut E, &CancelToken) -> Result<T, JobError> + Send + 'static,
    {
        self.submit_inner(lane, props, deadline, Some(plan), f)
    }

    /// Memory-relevant dimensions of the served graph, as snapshotted at
    /// server start (`live_props` zeroed). This is the schema surface a
    /// query compiler needs — vertex count, machine count — without
    /// touching the dispatcher-owned engine.
    pub fn graph_profile(&self) -> crate::MemProfile {
        self.shared.base_profile
    }

    /// [`Session::submit`] with an explicit deadline, measured from now —
    /// time spent queued counts against it.
    pub fn submit_with_deadline<T, F>(
        &self,
        lane: Lane,
        props: usize,
        deadline: Duration,
        f: F,
    ) -> Result<JobHandle<T>, JobError>
    where
        T: Send + 'static,
        F: FnOnce(&mut E, &CancelToken) -> Result<T, JobError> + Send + 'static,
    {
        self.submit_inner(lane, props, Some(deadline), None, f)
    }

    fn submit_inner<T, F>(
        &self,
        lane: Lane,
        props: usize,
        deadline: Option<Duration>,
        plan: Option<Arc<str>>,
        f: F,
    ) -> Result<JobHandle<T>, JobError>
    where
        T: Send + 'static,
        F: FnOnce(&mut E, &CancelToken) -> Result<T, JobError> + Send + 'static,
    {
        let shared = &self.shared;
        // A job that would overshoot the budget on an *empty* column set
        // can never be admitted; reject at submit instead of letting it
        // camp in the queue.
        let budget = shared.config.memory_budget_bytes;
        if budget > 0 {
            let mut empty = shared.base_profile;
            empty.live_props = 0;
            let estimated = estimate_bytes(&empty, props);
            if estimated > budget {
                shared
                    .telemetry
                    .stats()
                    .jobs_rejected
                    .fetch_add(1, Ordering::Relaxed);
                return Err(JobError::AdmissionDenied {
                    estimated_bytes: estimated,
                    budget_bytes: budget,
                });
            }
        }
        let mut st = shared.state.lock();
        if st.shutdown {
            return Err(JobError::Protocol("job server shut down".into()));
        }
        // Overload brownout: track queue occupancy against the shed /
        // reopen thresholds (hysteresis), and while the gate is closed
        // refuse batch work with a retry-after hint. Interactive
        // submissions still update the gate — they are how a batch-only
        // lull gets observed — but are never shed themselves.
        let shed_pm = shared.config.brownout_shed_per_mille;
        if shed_pm > 0 {
            let occupancy = st.sched.queued();
            let depth = shared.config.queue_depth;
            let shed_at = (depth * usize::from(shed_pm) / 1000).max(1);
            let reopen_at = depth * usize::from(shared.config.brownout_reopen_per_mille) / 1000;
            let stats = shared.telemetry.stats();
            if !st.browned_out && occupancy >= shed_at {
                st.browned_out = true;
                stats.brownout_sheds.fetch_add(1, Ordering::Relaxed);
                shared
                    .telemetry
                    .trace(0, EventKind::BrownoutShed, occupancy as u64);
            } else if st.browned_out && occupancy <= reopen_at {
                st.browned_out = false;
                stats.brownout_reopens.fetch_add(1, Ordering::Relaxed);
                shared
                    .telemetry
                    .trace(0, EventKind::BrownoutReopen, occupancy as u64);
            }
            if st.browned_out && lane == Lane::Batch {
                stats.jobs_rejected.fetch_add(1, Ordering::Relaxed);
                return Err(JobError::Overloaded {
                    retry_after_ms: BROWNOUT_RETRY_AFTER_MS,
                });
            }
        }
        st.next_job += 1;
        let id = st.next_job;
        let token = CancelToken::for_job(id);
        if let Some(d) = deadline {
            token.set_deadline(d);
        }
        st.sched.submit(JobMeta {
            id,
            session: self.id,
            lane,
            props,
        })?;
        let (tx, rx) = mpsc::channel();
        let run: BoxedJob<E> = Box::new(move |engine, cancel| {
            f(engine, cancel).map(|v| Box::new(v) as Box<dyn Any + Send>)
        });
        st.queued.insert(
            id,
            QueuedJob {
                run,
                token: token.clone(),
                tx,
                submitted: Instant::now(),
                enqueue_ns: shared.telemetry.now_ns(),
                plan,
            },
        );
        drop(st);
        shared.telemetry.trace(0, EventKind::JobEnqueue, id);
        shared.cv.notify_all();
        let cancel_shared = Arc::clone(shared);
        Ok(JobHandle {
            job: id,
            token,
            rx,
            cancel_queued: Arc::new(move |job| {
                let mut st = cancel_shared.state.lock();
                if st.sched.cancel(job).is_some() {
                    let qj = st.queued.remove(&job).expect("queued job has a closure");
                    drop(st);
                    cancel_shared.fail_job(job, qj, JobError::Cancelled { job });
                    cancel_shared.cv.notify_all();
                }
            }),
            _result: PhantomData,
        })
    }

    /// Cancels the session's queued jobs and schedules reclamation of
    /// every property column its jobs created. Idempotent; also runs on
    /// drop.
    pub fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        let mut st = self.shared.state.lock();
        for meta in st.sched.drain_session(self.id) {
            if let Some(qj) = st.queued.remove(&meta.id) {
                qj.token.cancel();
                self.shared
                    .fail_job(meta.id, qj, JobError::Cancelled { job: meta.id });
            }
        }
        st.retired_sessions.push(self.id);
        drop(st);
        self.shared.cv.notify_all();
    }
}

impl<E: ServeEngine> Drop for Session<E> {
    fn drop(&mut self) {
        self.close();
    }
}

/// The multi-tenant job server. See the module docs.
pub struct JobServer<E: ServeEngine> {
    shared: Arc<Shared<E>>,
    next_session: AtomicU64,
    dispatcher: Option<std::thread::JoinHandle<E>>,
}

impl<E: ServeEngine> JobServer<E> {
    /// Takes ownership of a loaded engine and starts the dispatcher
    /// thread. `config` is usually the engine's own `serve` section.
    pub fn start(engine: E, config: ServeConfig) -> JobServer<E> {
        let telemetry = engine.telemetry();
        let mut base_profile = engine.mem_profile();
        base_profile.live_props = 0;
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                sched: Scheduler::new(config.queue_depth, config.lane_weights, SESSION_CAP),
                queued: HashMap::new(),
                session_props: HashMap::new(),
                retired_sessions: Vec::new(),
                next_job: 0,
                shutdown: false,
                browned_out: false,
            }),
            cv: Condvar::new(),
            retry_budget: Arc::new(RetryBudget::new(
                config.retry_budget_tokens,
                config.retry_budget_refill_ms,
            )),
            config,
            telemetry,
            base_profile,
        });
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("pgxd-dispatch".into())
                .spawn(move || dispatcher_loop(engine, shared))
                .expect("spawn dispatcher")
        };
        JobServer {
            shared,
            next_session: AtomicU64::new(0),
            dispatcher: Some(dispatcher),
        }
    }

    /// Opens a named session.
    pub fn session(&self, name: &str) -> Session<E> {
        Session {
            shared: Arc::clone(&self.shared),
            id: self.next_session.fetch_add(1, Ordering::Relaxed) + 1,
            name: name.to_string(),
            closed: false,
        }
    }

    /// The server's telemetry registry (machine 0's, for cluster-backed
    /// engines) — job counters and the queue-wait histogram live here.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.shared.telemetry
    }

    /// The server-wide retry budget. Hand clones to recovery drivers
    /// (`RecoveryDriver::with_retry_budget`) so their retries draw from
    /// the same token pool as every session's; with
    /// `retry_budget_tokens = 0` the bucket is unbudgeted and every
    /// acquire succeeds.
    pub fn retry_budget(&self) -> Arc<RetryBudget> {
        Arc::clone(&self.shared.retry_budget)
    }

    /// Takes one token from the server-wide retry budget on behalf of a
    /// client about to resubmit a shed or failed job. A dry bucket
    /// returns `false`, bumps the `retry_budget_exhausted` telemetry
    /// counter, and the client must surface
    /// [`JobError::RetryBudgetExhausted`] instead of retrying.
    pub fn try_retry(&self) -> bool {
        let ok = self.shared.retry_budget.try_acquire();
        if !ok {
            self.shared
                .telemetry
                .stats()
                .retry_budget_exhausted
                .fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// Stops accepting work, fails still-queued jobs with
    /// [`JobError::Cancelled`], waits for the running job (if any) to
    /// finish, and returns the engine.
    pub fn shutdown(mut self) -> E {
        self.begin_shutdown();
        self.dispatcher
            .take()
            .expect("dispatcher joined once")
            .join()
            .expect("dispatcher thread panicked")
    }

    fn begin_shutdown(&self) {
        let mut st = self.shared.state.lock();
        st.shutdown = true;
        let ids: Vec<u64> = st.queued.keys().copied().collect();
        for id in ids {
            if st.sched.cancel(id).is_some() {
                let qj = st.queued.remove(&id).expect("queued job has a closure");
                qj.token.cancel();
                self.shared
                    .fail_job(id, qj, JobError::Cancelled { job: id });
            }
        }
        drop(st);
        self.shared.cv.notify_all();
    }
}

impl<E: ServeEngine> Drop for JobServer<E> {
    fn drop(&mut self) {
        if let Some(handle) = self.dispatcher.take() {
            self.begin_shutdown();
            let _ = handle.join();
        }
    }
}

fn dispatcher_loop<E: ServeEngine>(mut engine: E, shared: Arc<Shared<E>>) -> E {
    loop {
        let work: Work<E> = {
            let mut st = shared.state.lock();
            loop {
                if !st.retired_sessions.is_empty() {
                    let mut props = Vec::new();
                    let sessions: Vec<u64> = st.retired_sessions.drain(..).collect();
                    for s in sessions {
                        props.extend(st.session_props.remove(&s).unwrap_or_default());
                    }
                    break Work::Reclaim(props);
                }
                if let Some(meta) = st.sched.next_job() {
                    let qj = st
                        .queued
                        .remove(&meta.id)
                        .expect("queued job has a closure");
                    break Work::Run { meta, qj };
                }
                if st.shutdown {
                    break Work::Shutdown;
                }
                shared.cv.wait(&mut st);
            }
        };
        match work {
            Work::Shutdown => return engine,
            Work::Reclaim(props) => {
                for id in props {
                    engine.reclaim_prop(id);
                }
            }
            Work::Run { meta, qj } => run_one(&mut engine, &shared, meta, qj),
        }
    }
}

/// Dispatch-time checks + execution of one job. Runs on the dispatcher
/// thread with the state lock released (only re-taken briefly to record
/// completion).
fn run_one<E: ServeEngine>(
    engine: &mut E,
    shared: &Arc<Shared<E>>,
    meta: JobMeta,
    qj: QueuedJob<E>,
) {
    let telemetry = &shared.telemetry;
    let wait_ns = qj.submitted.elapsed().as_nanos() as u64;
    telemetry.record_queue_wait(wait_ns);

    // The token may have fired while the job sat in the queue (deadline,
    // or a cancel that raced dispatch).
    let queued_failure = qj.token.fired().map(|reason| match reason {
        CancelReason::Explicit => JobError::Cancelled { job: meta.id },
        CancelReason::Deadline => JobError::DeadlineExceeded { job: meta.id },
    });
    if let Some(err) = queued_failure {
        shared.fail_job(meta.id, qj, err);
        shared.state.lock().sched.complete(meta.session);
        shared.cv.notify_all();
        return;
    }

    // Admission against the *current* column population: long-lived
    // sessions grow the resident set, and later jobs must fit next to it.
    let budget = shared.config.memory_budget_bytes;
    if budget > 0 {
        let estimated = estimate_bytes(&engine.mem_profile(), meta.props);
        if estimated > budget {
            shared.fail_job(
                meta.id,
                qj,
                JobError::AdmissionDenied {
                    estimated_bytes: estimated,
                    budget_bytes: budget,
                },
            );
            shared.state.lock().sched.complete(meta.session);
            shared.cv.notify_all();
            return;
        }
    }

    let stats = telemetry.stats();
    stats.jobs_admitted.fetch_add(1, Ordering::Relaxed);
    telemetry.trace(0, EventKind::JobDispatch, meta.id);

    // Open the per-job attribution window. Jobs serialize on this thread,
    // so the window brackets exactly one job body and its counter delta is
    // that job's wire cost.
    engine.begin_job(
        JobCtx {
            job: meta.id,
            session: meta.session,
            lane: meta.lane as u8,
        },
        qj.enqueue_ns,
    );
    let before = engine.live_prop_ids();
    let run_started = Instant::now();
    // A panicking body fails its own job, not the dispatcher: the jobs
    // queued behind it still run.
    let body = AssertUnwindSafe(|| (qj.run)(engine, &qj.token));
    let (result, panicked) = match std::panic::catch_unwind(body) {
        Ok(result) => (result, false),
        Err(payload) => {
            let msg = format!("job {} panicked: {}", meta.id, panic_message(&*payload));
            (Err(JobError::Protocol(msg)), true)
        }
    };
    let run = run_started.elapsed();
    let outcome = match &result {
        Ok(_) => JobOutcome::Done,
        Err(err) if err.is_cancellation() => JobOutcome::Cancelled,
        Err(_) => JobOutcome::Failed,
    };
    let exec = engine.end_job(outcome);
    let after = engine.live_prop_ids();
    let created: Vec<PropId> = after
        .into_iter()
        .filter(|id| !before.contains(id))
        .collect();

    if panicked || outcome == JobOutcome::Cancelled {
        // A killed or panicked job's scratch columns are garbage; free them
        // now so it cannot leak memory into the budget.
        for id in created {
            engine.reclaim_prop(id);
        }
    } else if !created.is_empty() {
        shared
            .state
            .lock()
            .session_props
            .entry(meta.session)
            .or_default()
            .extend(created);
    }
    if let Err(err) = &result {
        if err.is_cancellation() {
            let stats = telemetry.stats();
            if matches!(err, JobError::DeadlineExceeded { .. }) {
                stats.jobs_deadline_missed.fetch_add(1, Ordering::Relaxed);
            }
            stats.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
            telemetry.trace(0, EventKind::JobCancel, meta.id);
        }
    }

    if outcome != JobOutcome::Cancelled {
        // Cancellation already traced `JobCancel` above; everything else
        // marks the cluster release explicitly.
        telemetry.trace(0, EventKind::JobDone, meta.id);
    }
    let report = JobReport {
        job: meta.id,
        session: meta.session,
        lane: meta.lane,
        queue_wait: Duration::from_nanos(wait_ns),
        run,
        outcome,
        exec,
        plan: qj.plan,
    };
    let _ = qj.tx.send((result, Some(report)));
    shared.state.lock().sched.complete(meta.session);
    shared.cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemProfile;

    /// A fake engine: properties are just a set of ids, jobs are
    /// closures over a counter.
    struct MockEngine {
        props: Vec<PropId>,
        next_prop: u16,
        telemetry: Arc<Telemetry>,
        runs: u64,
    }

    impl MockEngine {
        fn new() -> Self {
            MockEngine {
                props: Vec::new(),
                next_prop: 0,
                telemetry: Telemetry::detached(1, true),
                runs: 0,
            }
        }

        fn add_prop(&mut self) -> PropId {
            let id = PropId(self.next_prop);
            self.next_prop += 1;
            self.props.push(id);
            id
        }
    }

    impl ServeEngine for MockEngine {
        fn mem_profile(&self) -> MemProfile {
            MemProfile {
                nodes: 1000,
                machines: 2,
                ghosts: 0,
                send_buffers_per_machine: 2,
                buffer_bytes: 1024,
                live_props: self.props.len(),
                recovery_enabled: false,
            }
        }

        fn live_prop_ids(&self) -> Vec<PropId> {
            self.props.clone()
        }

        fn reclaim_prop(&mut self, id: PropId) {
            self.props.retain(|&p| p != id);
        }

        fn telemetry(&self) -> Arc<Telemetry> {
            Arc::clone(&self.telemetry)
        }
    }

    fn config() -> ServeConfig {
        ServeConfig::default()
    }

    #[test]
    fn jobs_run_and_return_typed_results() {
        let server = JobServer::start(MockEngine::new(), config());
        let session = server.session("alice");
        let h = session
            .submit(Lane::Interactive, 0, |engine: &mut MockEngine, _| {
                engine.runs += 1;
                Ok(engine.runs * 10)
            })
            .unwrap();
        assert_eq!(h.join().unwrap(), 10);
        drop(session);
        let engine = server.shutdown();
        assert_eq!(engine.runs, 1);
    }

    #[test]
    fn queued_cancel_fails_immediately_without_running() {
        let server = JobServer::start(MockEngine::new(), config());
        let session = server.session("s");
        // Occupy the dispatcher so the next job stays queued.
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let blocker = session
            .submit(Lane::Batch, 0, move |_: &mut MockEngine, _| {
                block_rx.recv().ok();
                Ok(())
            })
            .unwrap();
        let victim = session
            .submit(Lane::Batch, 0, |engine: &mut MockEngine, _| {
                engine.runs += 1;
                Ok(())
            })
            .unwrap();
        let victim_id = victim.id();
        victim.cancel();
        match victim.join() {
            Err(JobError::Cancelled { job }) => assert_eq!(job, victim_id),
            other => panic!("expected Cancelled, got {other:?}"),
        }
        block_tx.send(()).unwrap();
        blocker.join().unwrap();
        drop(session);
        let engine = server.shutdown();
        assert_eq!(engine.runs, 0, "cancelled job never ran");
    }

    #[test]
    fn running_job_observes_token() {
        let server = JobServer::start(MockEngine::new(), config());
        let session = server.session("s");
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let h = session
            .submit(Lane::Interactive, 0, move |_: &mut MockEngine, cancel| {
                started_tx.send(()).unwrap();
                while !cancel.is_cancelled() {
                    std::thread::yield_now();
                }
                Err::<(), _>(JobError::Cancelled { job: cancel.job() })
            })
            .unwrap();
        started_rx.recv().unwrap();
        h.cancel();
        assert!(matches!(h.join(), Err(JobError::Cancelled { .. })));
        let t = Arc::clone(server.telemetry());
        drop(session);
        drop(server);
        assert_eq!(t.stats().snapshot().jobs_cancelled, 1);
    }

    #[test]
    fn deadline_expired_in_queue_surfaces_at_dispatch() {
        let server = JobServer::start(MockEngine::new(), config());
        let session = server.session("s");
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let blocker = session
            .submit(Lane::Batch, 0, move |_: &mut MockEngine, _| {
                block_rx.recv().ok();
                Ok(())
            })
            .unwrap();
        let doomed = session
            .submit_with_deadline(Lane::Batch, 0, Duration::ZERO, |e: &mut MockEngine, _| {
                e.runs += 1;
                Ok(())
            })
            .unwrap();
        std::thread::sleep(Duration::from_millis(2));
        block_tx.send(()).unwrap();
        blocker.join().unwrap();
        assert!(matches!(
            doomed.join(),
            Err(JobError::DeadlineExceeded { .. })
        ));
        drop(session);
        let engine = server.shutdown();
        assert_eq!(engine.runs, 0);
        assert_eq!(engine.telemetry.stats().snapshot().jobs_deadline_missed, 1);
    }

    #[test]
    fn admission_denied_when_budget_undersized() {
        let mut cfg = config();
        cfg.memory_budget_bytes = 1; // everything is too big
        let server = JobServer::start(MockEngine::new(), cfg);
        let session = server.session("s");
        let err = session
            .submit(Lane::Interactive, 4, |_: &mut MockEngine, _| Ok(()))
            .unwrap_err();
        match err {
            JobError::AdmissionDenied {
                estimated_bytes,
                budget_bytes,
            } => {
                assert!(estimated_bytes > budget_bytes);
                assert_eq!(budget_bytes, 1);
            }
            other => panic!("expected AdmissionDenied, got {other:?}"),
        }
        drop(session);
        let engine = server.shutdown();
        assert_eq!(engine.telemetry.stats().snapshot().jobs_rejected, 1);
    }

    #[test]
    fn dispatch_time_admission_counts_live_columns() {
        let mut cfg = config();
        // Head-room for one column (plus buffers) but not three. Mock
        // profile: column = 8 × 1000 = 8000 B, buffers = 2×2×1024 = 4096 B.
        cfg.memory_budget_bytes = 8000 + 4096 + 100;
        let server = JobServer::start(MockEngine::new(), cfg);
        let session = server.session("s");
        let first = session
            .submit(Lane::Interactive, 1, |e: &mut MockEngine, _| {
                e.add_prop();
                Ok(())
            })
            .unwrap();
        first.join().unwrap();
        // The column created by job 1 is now resident: an identical job no
        // longer fits, even though it passed the submit-time check.
        let second = session
            .submit(Lane::Interactive, 1, |e: &mut MockEngine, _| {
                e.add_prop();
                Ok(())
            })
            .unwrap();
        assert!(matches!(
            second.join(),
            Err(JobError::AdmissionDenied { .. })
        ));
        drop(session);
        server.shutdown();
    }

    #[test]
    fn session_close_reclaims_columns_and_cancelled_jobs_reclaim_now() {
        let server = JobServer::start(MockEngine::new(), config());
        let mut alice = server.session("alice");
        let bob = server.session("bob");
        let a = alice
            .submit(Lane::Interactive, 1, |e: &mut MockEngine, _| {
                Ok(e.add_prop())
            })
            .unwrap();
        let b = bob
            .submit(Lane::Interactive, 1, |e: &mut MockEngine, _| {
                Ok(e.add_prop())
            })
            .unwrap();
        let a_prop = a.join().unwrap();
        let b_prop = b.join().unwrap();
        assert_ne!(a_prop, b_prop, "sessions get disjoint property ids");
        // A cancelled job's columns are reclaimed immediately.
        let c = alice
            .submit(Lane::Interactive, 1, |e: &mut MockEngine, cancel| {
                let _scratch = e.add_prop();
                Err::<(), _>(JobError::Cancelled { job: cancel.job() })
            })
            .unwrap();
        assert!(matches!(c.join(), Err(JobError::Cancelled { .. })));
        alice.close();
        drop(bob);
        let engine = server.shutdown();
        assert!(
            engine.props.is_empty(),
            "all session columns reclaimed, got {:?}",
            engine.props
        );
    }

    #[test]
    fn queue_overflow_is_structured() {
        let mut cfg = config();
        cfg.queue_depth = 1;
        let server = JobServer::start(MockEngine::new(), cfg);
        let session = server.session("s");
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let blocker = session
            .submit(Lane::Batch, 0, move |_: &mut MockEngine, _| {
                started_tx.send(()).ok();
                block_rx.recv().ok();
                Ok(())
            })
            .unwrap();
        // Wait until the blocker has left the queue and holds the engine.
        started_rx.recv().unwrap();
        let _queued = session
            .submit(Lane::Batch, 0, |_: &mut MockEngine, _| Ok(()))
            .unwrap();
        let err = session
            .submit(Lane::Batch, 0, |_: &mut MockEngine, _| Ok(()))
            .unwrap_err();
        assert!(matches!(err, JobError::QueueFull { depth: 1, .. }));
        block_tx.send(()).unwrap();
        blocker.join().unwrap();
        drop(session);
        server.shutdown();
    }

    #[test]
    fn brownout_sheds_batch_lane_with_hysteresis() {
        let mut cfg = config();
        cfg.queue_depth = 4;
        cfg.brownout_shed_per_mille = 500; // shed at 2 queued
        cfg.brownout_reopen_per_mille = 250; // reopen at ≤ 1 queued
        let server = JobServer::start(MockEngine::new(), cfg);
        let session = server.session("s");
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let blocker = session
            .submit(Lane::Batch, 0, move |_: &mut MockEngine, _| {
                started_tx.send(()).ok();
                block_rx.recv().ok();
                Ok(())
            })
            .unwrap();
        started_rx.recv().unwrap();
        // Fill to the shed threshold while the dispatcher is held.
        let q1 = session
            .submit(Lane::Batch, 0, |_: &mut MockEngine, _| Ok(()))
            .unwrap();
        let q2 = session
            .submit(Lane::Batch, 0, |_: &mut MockEngine, _| Ok(()))
            .unwrap();
        // Occupancy 2 ≥ shed threshold: gate closes, batch is shed with
        // the retry-after hint...
        let err = session
            .submit(Lane::Batch, 0, |_: &mut MockEngine, _| Ok(()))
            .unwrap_err();
        assert_eq!(
            err,
            JobError::Overloaded {
                retry_after_ms: BROWNOUT_RETRY_AFTER_MS
            }
        );
        assert!(err.is_transient(), "Overloaded must invite a retry");
        // ...and stays closed for batch while occupancy holds...
        assert!(matches!(
            session
                .submit(Lane::Batch, 0, |_: &mut MockEngine, _| Ok(()))
                .unwrap_err(),
            JobError::Overloaded { .. }
        ));
        // ...but the interactive lane is still live.
        let live = session
            .submit(Lane::Interactive, 0, |_: &mut MockEngine, _| Ok(42u32))
            .unwrap();
        block_tx.send(()).unwrap();
        blocker.join().unwrap();
        q1.join().unwrap();
        q2.join().unwrap();
        assert_eq!(live.join().unwrap(), 42);
        // Queue drained below the reopen threshold: batch flows again.
        session
            .submit(Lane::Batch, 0, |_: &mut MockEngine, _| Ok(()))
            .unwrap()
            .join()
            .unwrap();
        let t = Arc::clone(server.telemetry());
        drop(session);
        drop(server);
        let snap = t.stats().snapshot();
        assert_eq!(snap.brownout_sheds, 1, "one shed transition");
        assert_eq!(snap.brownout_reopens, 1, "one reopen transition");
        assert_eq!(snap.jobs_rejected, 2, "both shed submissions counted");
    }

    #[test]
    fn retry_budget_is_server_wide_and_counts_exhaustion() {
        let mut cfg = config();
        cfg.retry_budget_tokens = 1;
        cfg.retry_budget_refill_ms = 60_000; // effectively no refill here
        let server = JobServer::start(MockEngine::new(), cfg);
        let budget = server.retry_budget();
        assert!(server.try_retry(), "first token available");
        assert!(!server.try_retry(), "bucket dry");
        assert_eq!(budget.exhausted_events(), 1);
        // Every accessor call hands out the same bucket.
        assert!(!budget.try_acquire());
        assert_eq!(budget.exhausted_events(), 2);
        let t = Arc::clone(server.telemetry());
        server.shutdown();
        assert_eq!(
            t.stats().snapshot().retry_budget_exhausted,
            1,
            "server-mediated exhaustion is counted in telemetry"
        );
    }

    #[test]
    fn submitted_plan_travels_into_the_report() {
        let server = JobServer::start(MockEngine::new(), config());
        let session = server.session("q");
        assert_eq!(session.graph_profile().nodes, 1000);
        let plan: Arc<str> = Arc::from("0 compute x = 1\n1 reduce sum(x)");
        let h = session
            .submit_with_plan(Lane::Interactive, 0, None, Arc::clone(&plan), {
                |_: &mut MockEngine, _| Ok(3u8)
            })
            .unwrap();
        let (result, report) = h.join_with_report();
        assert_eq!(result.unwrap(), 3);
        assert_eq!(report.expect("dispatched").plan.as_deref(), Some(&*plan));
        // Plain submissions carry no plan.
        let h = session
            .submit(Lane::Interactive, 0, |_: &mut MockEngine, _| Ok(()))
            .unwrap();
        let (_, report) = h.join_with_report();
        assert!(report.expect("dispatched").plan.is_none());
        drop(session);
        server.shutdown();
    }

    /// Six interactive and three batch jobs pile up behind a batch
    /// blocker, so the dispatcher thread drains them purely by the
    /// weighted-fair rule. With weights [3, 1] and the batch lane already
    /// charged for the blocker, the cross-multiplied comparison gives
    /// exactly i i i i b i i b b.
    #[test]
    fn saturated_server_drains_lanes_in_weighted_fair_order() {
        let server = JobServer::start(MockEngine::new(), config());
        let session = server.session("s");
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let blocker = session
            .submit(Lane::Batch, 0, move |_: &mut MockEngine, _| {
                started_tx.send(()).ok();
                block_rx.recv().ok();
                Ok(())
            })
            .unwrap();
        started_rx.recv().unwrap();
        let order = Arc::new(Mutex::new(String::new()));
        let mut jobs = Vec::new();
        for (lane, tag, n) in [(Lane::Interactive, 'i', 6), (Lane::Batch, 'b', 3)] {
            for _ in 0..n {
                let order = Arc::clone(&order);
                let job = session.submit(lane, 0, move |_: &mut MockEngine, _| {
                    order.lock().push(tag);
                    Ok(())
                });
                jobs.push(job.unwrap());
            }
        }
        block_tx.send(()).unwrap();
        blocker.join().unwrap();
        for h in jobs {
            h.join().unwrap();
        }
        assert_eq!(*order.lock(), "iiiibiibb");
        drop(session);
        server.shutdown();
    }

    #[test]
    fn queue_wait_histogram_is_fed() {
        let server = JobServer::start(MockEngine::new(), config());
        let session = server.session("s");
        session
            .submit(Lane::Interactive, 0, |_: &mut MockEngine, _| Ok(()))
            .unwrap()
            .join()
            .unwrap();
        let t = Arc::clone(server.telemetry());
        drop(session);
        drop(server);
        assert_eq!(t.queue_wait_snapshot().count(), 1);
        assert_eq!(t.stats().snapshot().jobs_admitted, 1);
    }

    #[test]
    fn completion_report_carries_wall_times_and_outcome() {
        let server = JobServer::start(MockEngine::new(), config());
        let session = server.session("s");
        let h = session
            .submit(Lane::Batch, 0, |_: &mut MockEngine, _| {
                std::thread::sleep(Duration::from_millis(2));
                Ok(7u64)
            })
            .unwrap();
        let (result, report) = h.join_with_report();
        assert_eq!(result.unwrap(), 7);
        let r = report.expect("dispatched jobs report");
        assert_eq!(r.outcome, JobOutcome::Done);
        assert_eq!(r.lane, Lane::Batch);
        assert!(r.run >= Duration::from_millis(2));
        // MockEngine tracks no JobExec: breakdown accessors default to zero.
        assert!(r.exec.is_none());
        assert_eq!(r.compute(), Duration::ZERO);
        assert_eq!(r.wire_bytes(), 0);
        assert!(r.phases().is_empty());

        // A job cancelled while queued never dispatches → no report.
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let blocker = session
            .submit(Lane::Batch, 0, move |_: &mut MockEngine, _| {
                block_rx.recv().ok();
                Ok(())
            })
            .unwrap();
        let victim = session
            .submit(Lane::Batch, 0, |_: &mut MockEngine, _| Ok(()))
            .unwrap();
        victim.cancel();
        let (result, report) = victim.join_with_report();
        assert!(matches!(result, Err(JobError::Cancelled { .. })));
        assert!(report.is_none());
        block_tx.send(()).unwrap();
        blocker.join().unwrap();
        drop(session);
        server.shutdown();
    }
}
