//! Cluster failure detection and structured job failure.
//!
//! One [`ClusterHealth`] is shared by every machine of a cluster. It is the
//! rendezvous point for the reliability layer: copiers refresh the
//! last-heard clock for each peer as traffic (or an explicit heartbeat)
//! arrives, the per-machine poller tick runs the watchdog over those
//! clocks, and any component that detects an unrecoverable condition
//! records a [`JobError`] here. Workers blocked in a drain or barrier wait
//! poll [`ClusterHealth::is_aborted`] from their idle branches, so a single
//! recorded error unwinds every thread of the cluster instead of leaving
//! the exact termination counter deadlocked.
//!
//! The first recorded error wins; an aborted cluster is terminal — stale
//! retransmissions and limbo envelopes may still be in flight, so no
//! further phase is allowed to run on it.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::ids::MachineId;

/// Why a job failed. Returned by the fallible `run` APIs instead of
/// hanging or panicking.
///
/// `#[non_exhaustive]` so recovery-era variants (and future ones) never
/// break downstream matches: callers must keep a wildcard arm.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum JobError {
    /// A machine crashed or was partitioned away: its heartbeats went
    /// silent past the watchdog deadline, or an envelope to it exhausted
    /// its retransmission budget, or its queues were torn down.
    MachineDown {
        /// The machine the failure was attributed to.
        machine: MachineId,
    },
    /// The engine observed a protocol violation it could not recover from
    /// (e.g. an envelope referencing a retired property or side slot while
    /// the reliability protocol is off).
    Protocol(String),
    /// A checkpoint failed verification on restore (checksum mismatch,
    /// shard gap, or layout drift between snapshot and restore cluster).
    CheckpointCorrupt(String),
    /// The recovery driver gave up: every attempt allowed by the
    /// [`RecoveryConfig`](crate::config::RecoveryConfig) budget failed.
    RetriesExhausted {
        /// Attempts made (initial run + retries).
        attempts: u32,
        /// The failure of the final attempt.
        last: Box<JobError>,
    },
    /// The job server's bounded submission queue was full; the submit was
    /// rejected instead of blocking the client.
    QueueFull {
        /// Jobs already queued when the submit arrived.
        queued: usize,
        /// The configured queue depth (`ServeConfig::queue_depth`).
        depth: usize,
    },
    /// Admission control refused to dispatch the job: its memory estimate
    /// would overshoot the configured budget.
    AdmissionDenied {
        /// Estimated bytes the job would pin (property columns +
        /// buffer-pool share + checkpoint overhead).
        estimated_bytes: u64,
        /// The configured budget (`ServeConfig::memory_budget_bytes`).
        budget_bytes: u64,
    },
    /// The job was cancelled (client request or session close). Workers
    /// observed the token cooperatively; the cluster stays healthy.
    Cancelled {
        /// The cancelled job's id.
        job: u64,
    },
    /// The job's deadline passed before it completed (possibly while it
    /// was still queued).
    DeadlineExceeded {
        /// The expired job's id.
        job: u64,
    },
    /// The server shed this submit to protect the interactive lane: queue
    /// occupancy crossed the brownout threshold. Transient — retry after
    /// the hinted delay.
    Overloaded {
        /// Suggested client backoff before resubmitting, milliseconds.
        retry_after_ms: u64,
    },
    /// The server-wide retry budget (token bucket shared by every
    /// session) is exhausted: retrying now would join a retry storm
    /// against an already-degraded cluster, so the failure is surfaced
    /// instead.
    RetryBudgetExhausted,
    /// A transport-level failure on a real (TCP) backend: the wire itself
    /// misbehaved, as opposed to the peer being declared dead by the
    /// watchdog ([`JobError::MachineDown`]).
    Transport {
        /// What the wire did.
        kind: TransportErrorKind,
        /// Human-readable context (peer address, OS error, frame detail).
        detail: String,
    },
}

/// Classification of [`JobError::Transport`] failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum TransportErrorKind {
    /// Could not establish a connection (timeout, unreachable, OS error).
    Connect,
    /// The peer actively refused the connection — typically it has not
    /// bound its listener yet during bootstrap.
    Refused,
    /// An established connection was reset or closed unexpectedly.
    Reset,
    /// A received frame failed validation (bad magic/version/kind/length).
    /// Deterministic: the peers disagree about the protocol, so a retry
    /// would only fail again.
    FrameDecode,
}

impl JobError {
    /// Whether the recovery driver may retry after this failure. The
    /// transient class is machine loss (the whole point of degraded-mode
    /// recovery) plus the serve layer's load rejections — `QueueFull` and
    /// `Overloaded` clear on their own once pressure drains, so a backed-
    /// off retry is the right client response. Protocol violations and
    /// corrupt checkpoints are deterministic and would only fail again;
    /// `AdmissionDenied` is a sizing judgment that no retry changes; and a
    /// spent retry budget is *the* signal to stop retrying. Transport
    /// failures split by kind: connection-level trouble (`Connect`,
    /// `Refused`, `Reset`) is the wire's weather and clears on retry, but
    /// a frame-decode failure means the peers disagree about the protocol
    /// itself and would fail identically forever.
    pub fn is_transient(&self) -> bool {
        match self {
            JobError::MachineDown { .. }
            | JobError::QueueFull { .. }
            | JobError::Overloaded { .. } => true,
            JobError::Transport { kind, .. } => !matches!(kind, TransportErrorKind::FrameDecode),
            _ => false,
        }
    }

    /// Whether this failure is a cancellation (explicit cancel or missed
    /// deadline). Cancellations are *fatal by design*: the client asked
    /// the job to stop, so the recovery driver's `RetryPolicy` must never
    /// re-run it, even though the cluster itself is still healthy.
    pub fn is_cancellation(&self) -> bool {
        matches!(
            self,
            JobError::Cancelled { .. } | JobError::DeadlineExceeded { .. }
        )
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::MachineDown { machine } => {
                write!(f, "machine {machine} is down (crashed or partitioned)")
            }
            JobError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            JobError::CheckpointCorrupt(msg) => write!(f, "checkpoint corrupt: {msg}"),
            JobError::RetriesExhausted { attempts, last } => {
                write!(
                    f,
                    "job failed after {attempts} attempts; last error: {last}"
                )
            }
            JobError::QueueFull { queued, depth } => {
                write!(
                    f,
                    "job rejected: submission queue is full ({queued} of {depth} slots taken)"
                )
            }
            JobError::AdmissionDenied {
                estimated_bytes,
                budget_bytes,
            } => {
                write!(
                    f,
                    "job denied admission: estimated {estimated_bytes} bytes \
                     exceeds the {budget_bytes}-byte memory budget"
                )
            }
            JobError::Cancelled { job } => {
                write!(f, "job {job} was cancelled")
            }
            JobError::DeadlineExceeded { job } => {
                write!(f, "job {job} exceeded its deadline")
            }
            JobError::Overloaded { retry_after_ms } => {
                write!(
                    f,
                    "server overloaded: batch lane shed, retry after {retry_after_ms} ms"
                )
            }
            JobError::RetryBudgetExhausted => {
                write!(f, "server-wide retry budget exhausted; not retrying")
            }
            JobError::Transport { kind, detail } => {
                let what = match kind {
                    TransportErrorKind::Connect => "connect failed",
                    TransportErrorKind::Refused => "connection refused",
                    TransportErrorKind::Reset => "connection reset",
                    TransportErrorKind::FrameDecode => "frame decode failed",
                };
                write!(f, "transport error: {what}: {detail}")
            }
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::RetriesExhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

/// Shared cluster liveness state. See the module docs.
#[derive(Debug)]
pub struct ClusterHealth {
    aborted: AtomicBool,
    error: Mutex<Option<JobError>>,
    /// Per-machine last-heard timestamps, nanoseconds since `epoch`.
    last_heard: Vec<AtomicU64>,
    /// Machines that announced a *clean* departure (a goodbye frame at
    /// teardown). The watchdog must never blame a departed peer: its
    /// silence is expected, not a crash.
    departed: Vec<AtomicBool>,
    epoch: Instant,
}

impl ClusterHealth {
    pub fn new(machines: usize) -> Self {
        ClusterHealth {
            aborted: AtomicBool::new(false),
            error: Mutex::new(None),
            last_heard: (0..machines).map(|_| AtomicU64::new(0)).collect(),
            departed: (0..machines).map(|_| AtomicBool::new(false)).collect(),
            epoch: Instant::now(),
        }
    }

    pub fn machines(&self) -> usize {
        self.last_heard.len()
    }

    /// Nanoseconds since this cluster's health epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Refreshes the last-heard clock for `src`. Called by copiers on every
    /// received envelope, so any traffic counts as liveness — heartbeats
    /// only matter on otherwise-idle links.
    #[inline]
    pub fn heard(&self, src: MachineId) {
        if let Some(c) = self.last_heard.get(src as usize) {
            c.store(self.now_ns(), Ordering::Relaxed);
        }
    }

    /// Records that `machine` announced a clean departure (teardown
    /// goodbye). The watchdog skips departed machines from then on, so a
    /// rank finishing earlier than its peers cannot be mistaken for a
    /// crash during the close race.
    pub fn mark_departed(&self, machine: MachineId) {
        if let Some(d) = self.departed.get(machine as usize) {
            d.store(true, Ordering::Release);
        }
    }

    /// Whether `machine` announced a clean departure.
    pub fn is_departed(&self, machine: MachineId) -> bool {
        self.departed
            .get(machine as usize)
            .map(|d| d.load(Ordering::Acquire))
            .unwrap_or(false)
    }

    /// Records a failure and flips the cluster into the aborted state.
    /// Only the first error is kept; returns whether this call was first.
    pub fn abort(&self, err: JobError) -> bool {
        let mut slot = self.error.lock().unwrap_or_else(|e| e.into_inner());
        let first = slot.is_none();
        if first {
            *slot = Some(err);
        }
        drop(slot);
        self.aborted.store(true, Ordering::Release);
        first
    }

    #[inline]
    pub fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    /// The recorded failure, if any.
    pub fn error(&self) -> Option<JobError> {
        self.error.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Watchdog check run from machine `me`'s poller tick: scans peer
    /// last-heard clocks against `deadline_ms` of silence. Returns the
    /// machine to blame, or `None` if all peers are live. When *every*
    /// peer has gone silent simultaneously, the caller itself is the
    /// partitioned one, so the blame lands on `me` — this keeps the error
    /// deterministic under a single-machine crash plan.
    pub fn stale_peer(&self, me: MachineId, deadline_ms: u64) -> Option<MachineId> {
        let machines = self.last_heard.len();
        if machines <= 1 {
            return None;
        }
        let now = self.now_ns();
        let deadline_ns = deadline_ms.saturating_mul(1_000_000);
        let mut first_stale = None;
        let mut stale = 0usize;
        let mut watched = 0usize;
        for (p, clock) in self.last_heard.iter().enumerate() {
            if p == me as usize || self.departed[p].load(Ordering::Acquire) {
                continue;
            }
            watched += 1;
            let heard = clock.load(Ordering::Relaxed);
            if now.saturating_sub(heard) > deadline_ns {
                stale += 1;
                if first_stale.is_none() {
                    first_stale = Some(p as MachineId);
                }
            }
        }
        if watched == 0 {
            None
        } else if stale == watched {
            Some(me)
        } else {
            first_stale
        }
    }

    /// Marks every machine as freshly heard. Called once at assembly so the
    /// watchdog grace period starts at cluster birth, not at epoch zero.
    pub fn reset_clocks(&self) {
        let now = self.now_ns();
        for c in &self.last_heard {
            c.store(now, Ordering::Relaxed);
        }
    }
}

/// Server-wide retry budget: a token bucket shared (behind an `Arc`) by
/// every session and recovery driver of one server, so concurrent tenants
/// cannot amplify a degraded cluster's failure into a retry storm. Each
/// retry attempt must first take a token; when the bucket is dry the
/// caller surfaces [`JobError::RetryBudgetExhausted`] instead of retrying.
/// Tokens refill at a fixed rate up to the configured capacity.
///
/// A capacity of `0` means *unbudgeted*: [`RetryBudget::try_acquire`]
/// always succeeds and nothing is counted.
#[derive(Debug)]
pub struct RetryBudget {
    capacity: u32,
    refill_ms: u64,
    state: Mutex<BudgetState>,
    exhausted: AtomicU64,
}

#[derive(Debug)]
struct BudgetState {
    tokens: u32,
    last_refill: Instant,
}

impl RetryBudget {
    /// A bucket holding `capacity` tokens, refilling one token every
    /// `refill_ms` milliseconds. `capacity = 0` disables budgeting.
    pub fn new(capacity: u32, refill_ms: u64) -> Self {
        RetryBudget {
            capacity,
            refill_ms: refill_ms.max(1),
            state: Mutex::new(BudgetState {
                tokens: capacity,
                last_refill: Instant::now(),
            }),
            exhausted: AtomicU64::new(0),
        }
    }

    /// An unbudgeted bucket: every acquire succeeds.
    pub fn unlimited() -> Self {
        RetryBudget::new(0, 1)
    }

    /// Takes one retry token. Returns `false` (and counts an exhaustion)
    /// when the bucket is dry; the caller must then fail with
    /// [`JobError::RetryBudgetExhausted`] rather than retry.
    pub fn try_acquire(&self) -> bool {
        if self.capacity == 0 {
            return true;
        }
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let elapsed_ms = st.last_refill.elapsed().as_millis() as u64;
        let refills = elapsed_ms / self.refill_ms;
        if refills > 0 {
            st.tokens = st
                .tokens
                .saturating_add(refills.min(self.capacity as u64) as u32)
                .min(self.capacity);
            st.last_refill = Instant::now();
        }
        if st.tokens > 0 {
            st.tokens -= 1;
            true
        } else {
            self.exhausted.fetch_add(1, Ordering::Relaxed);
            false
        }
    }

    /// Tokens currently available (refills applied lazily, so this is a
    /// lower bound between acquires).
    pub fn tokens(&self) -> u32 {
        if self.capacity == 0 {
            return u32::MAX;
        }
        self.state.lock().unwrap_or_else(|e| e.into_inner()).tokens
    }

    /// How many acquires were refused because the bucket was dry.
    pub fn exhausted_events(&self) -> u64 {
        self.exhausted.load(Ordering::Relaxed)
    }
}

/// Flap detector: counts watchdog trips per machine across recovery
/// attempts and quarantines a machine once it trips `threshold` times.
/// The recovery driver consults it on every `MachineDown`: below the
/// threshold the machine gets another chance at full cluster size; at the
/// threshold it is quarantined and the driver proactively degrades to a
/// P−1 restore instead of letting the flapper crash the next attempt too.
///
/// `threshold = 1` reproduces the pre-quarantine behavior exactly — the
/// first trip already drops the machine.
#[derive(Debug)]
pub struct FlapDetector {
    threshold: u32,
    trips: Vec<u32>,
    quarantined: Vec<bool>,
}

impl FlapDetector {
    /// Detector over `machines` machines quarantining at `threshold`
    /// trips (clamped to ≥ 1).
    pub fn new(machines: usize, threshold: u32) -> Self {
        FlapDetector {
            threshold: threshold.max(1),
            trips: vec![0; machines],
            quarantined: vec![false; machines],
        }
    }

    /// Records one watchdog trip against `machine`. Returns `true` when
    /// this trip quarantines it (its trip count reached the threshold).
    pub fn record_trip(&mut self, machine: MachineId) -> bool {
        let m = machine as usize;
        if m >= self.trips.len() || self.quarantined[m] {
            return false;
        }
        self.trips[m] += 1;
        if self.trips[m] >= self.threshold {
            self.quarantined[m] = true;
            true
        } else {
            false
        }
    }

    /// Whether `machine` has been quarantined.
    pub fn is_quarantined(&self, machine: MachineId) -> bool {
        self.quarantined
            .get(machine as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Trips recorded against `machine` so far.
    pub fn trips(&self, machine: MachineId) -> u32 {
        self.trips.get(machine as usize).copied().unwrap_or(0)
    }

    /// Machines quarantined so far.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.iter().filter(|&&q| q).count()
    }
}

/// The message a panic was raised with (`panic!` with a literal or with
/// format arguments), for the error that fails its job.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    match payload.downcast_ref::<&str>() {
        Some(msg) => msg,
        None => payload.downcast_ref::<String>().map_or("?", String::as_str),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_error_wins() {
        let h = ClusterHealth::new(3);
        assert!(!h.is_aborted());
        assert!(h.abort(JobError::MachineDown { machine: 2 }));
        assert!(!h.abort(JobError::Protocol("later".into())));
        assert!(h.is_aborted());
        assert_eq!(h.error(), Some(JobError::MachineDown { machine: 2 }));
    }

    #[test]
    fn watchdog_blames_silent_peer() {
        let h = ClusterHealth::new(3);
        h.reset_clocks();
        // Everyone fresh: no blame.
        assert_eq!(h.stale_peer(0, 1_000), None);
        std::thread::sleep(std::time::Duration::from_millis(8));
        // Machines 0 and 1 keep talking; machine 2 goes silent.
        h.heard(0);
        h.heard(1);
        assert_eq!(h.stale_peer(0, 5), Some(2));
        assert_eq!(h.stale_peer(1, 5), Some(2));
    }

    #[test]
    fn watchdog_blames_self_when_fully_partitioned() {
        let h = ClusterHealth::new(4);
        h.reset_clocks();
        std::thread::sleep(std::time::Duration::from_millis(8));
        // Machine 3 heard from nobody: it is the partitioned one.
        h.heard(3);
        assert_eq!(h.stale_peer(3, 5), Some(3));
    }

    #[test]
    fn single_machine_never_trips() {
        let h = ClusterHealth::new(1);
        assert_eq!(h.stale_peer(0, 0), None);
    }

    /// A peer that said goodbye is exempt from the watchdog: its silence
    /// is a clean departure, not a crash — and once every peer has
    /// departed there is nobody left to blame (including ourselves).
    #[test]
    fn watchdog_skips_departed_peers() {
        let h = ClusterHealth::new(3);
        h.reset_clocks();
        std::thread::sleep(std::time::Duration::from_millis(8));
        h.heard(0);
        h.heard(1);
        assert_eq!(h.stale_peer(0, 5), Some(2), "silent peer 2 is blamed");
        h.mark_departed(2);
        assert!(h.is_departed(2));
        assert_eq!(h.stale_peer(0, 5), None, "departed peer 2 is exempt");
        h.mark_departed(1);
        assert_eq!(h.stale_peer(0, 5), None, "empty watch set never trips");
    }

    #[test]
    fn error_display() {
        let e = JobError::MachineDown { machine: 1 };
        assert!(e.to_string().contains("machine 1"));
        let e = JobError::Protocol("bad".into());
        assert!(e.to_string().contains("bad"));
        let e = JobError::CheckpointCorrupt("shard 3".into());
        assert!(e.to_string().contains("shard 3"));
        let e = JobError::RetriesExhausted {
            attempts: 4,
            last: Box::new(JobError::MachineDown { machine: 2 }),
        };
        assert!(e.to_string().contains("4 attempts"));
        assert!(e.to_string().contains("machine 2"));
        let e = JobError::QueueFull {
            queued: 8,
            depth: 8,
        };
        assert!(e.to_string().contains("8 of 8"));
        let e = JobError::AdmissionDenied {
            estimated_bytes: 4096,
            budget_bytes: 1024,
        };
        assert!(e.to_string().contains("4096"));
        assert!(e.to_string().contains("1024"));
        let e = JobError::Cancelled { job: 3 };
        assert!(e.to_string().contains("job 3"));
        let e = JobError::DeadlineExceeded { job: 9 };
        assert!(e.to_string().contains("job 9"));
        assert!(e.to_string().contains("deadline"));
        let e = JobError::Overloaded { retry_after_ms: 40 };
        assert!(e.to_string().contains("40 ms"));
        let e = JobError::RetryBudgetExhausted;
        assert!(e.to_string().contains("retry budget"));
    }

    #[test]
    fn error_classification_and_source() {
        use std::error::Error;
        assert!(JobError::MachineDown { machine: 0 }.is_transient());
        assert!(!JobError::Protocol("x".into()).is_transient());
        assert!(!JobError::CheckpointCorrupt("x".into()).is_transient());
        let e = JobError::RetriesExhausted {
            attempts: 2,
            last: Box::new(JobError::MachineDown { machine: 1 }),
        };
        assert!(!e.is_transient());
        // `?` with Box<dyn Error> works and the chain reaches the cause.
        let cause = e.source().expect("has source");
        assert!(cause.to_string().contains("machine 1"));
    }

    /// Pins the transient/permanent split for the wire-level variants:
    /// connection weather retries, protocol disagreement does not.
    #[test]
    fn transport_error_classification() {
        let t = |kind| JobError::Transport {
            kind,
            detail: "127.0.0.1:7001".into(),
        };
        assert!(t(TransportErrorKind::Connect).is_transient());
        assert!(t(TransportErrorKind::Refused).is_transient());
        assert!(t(TransportErrorKind::Reset).is_transient());
        assert!(!t(TransportErrorKind::FrameDecode).is_transient());
        for kind in [
            TransportErrorKind::Connect,
            TransportErrorKind::Refused,
            TransportErrorKind::Reset,
            TransportErrorKind::FrameDecode,
        ] {
            assert!(!t(kind).is_cancellation());
        }
        let msg = t(TransportErrorKind::Refused).to_string();
        assert!(msg.contains("connection refused"), "{msg}");
        assert!(msg.contains("127.0.0.1:7001"), "{msg}");
        let msg = t(TransportErrorKind::FrameDecode).to_string();
        assert!(msg.contains("frame decode failed"), "{msg}");
    }

    /// Pins the serve-layer retry classification: load rejections
    /// (`QueueFull`, `Overloaded`) clear on their own and are retryable
    /// with backoff; `AdmissionDenied` is a sizing judgment no retry
    /// changes; `RetryBudgetExhausted` is the signal to *stop* retrying.
    #[test]
    fn serve_layer_classification() {
        assert!(JobError::QueueFull {
            queued: 8,
            depth: 8
        }
        .is_transient());
        assert!(JobError::Overloaded { retry_after_ms: 50 }.is_transient());
        assert!(!JobError::AdmissionDenied {
            estimated_bytes: 2,
            budget_bytes: 1
        }
        .is_transient());
        assert!(!JobError::RetryBudgetExhausted.is_transient());
        assert!(!JobError::Overloaded { retry_after_ms: 50 }.is_cancellation());
        assert!(!JobError::RetryBudgetExhausted.is_cancellation());
    }

    #[test]
    fn retry_budget_exhausts_and_refills() {
        let b = RetryBudget::new(2, 10_000); // refill far in the future
        assert!(b.try_acquire());
        assert!(b.try_acquire());
        assert!(!b.try_acquire(), "third acquire must find the bucket dry");
        assert!(!b.try_acquire());
        assert_eq!(b.exhausted_events(), 2);
        assert_eq!(b.tokens(), 0);
        // A fast-refilling bucket recovers.
        let b = RetryBudget::new(1, 1);
        assert!(b.try_acquire());
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(b.try_acquire(), "token refilled after the interval");
        // Capacity 0 = unbudgeted.
        let b = RetryBudget::unlimited();
        for _ in 0..100 {
            assert!(b.try_acquire());
        }
        assert_eq!(b.exhausted_events(), 0);
    }

    #[test]
    fn flap_detector_quarantines_at_threshold() {
        let mut f = FlapDetector::new(4, 2);
        assert!(!f.record_trip(1), "first trip is below the threshold");
        assert!(!f.is_quarantined(1));
        assert!(f.record_trip(1), "second trip quarantines");
        assert!(f.is_quarantined(1));
        assert_eq!(f.trips(1), 2);
        // Further trips on a quarantined machine are no-ops.
        assert!(!f.record_trip(1));
        assert_eq!(f.trips(1), 2);
        assert_eq!(f.quarantined_count(), 1);
        // Threshold 1 = legacy behavior: first trip quarantines.
        let mut f = FlapDetector::new(2, 1);
        assert!(f.record_trip(0));
        assert!(f.is_quarantined(0));
        // Out-of-range machines are ignored.
        assert!(!f.record_trip(9));
    }

    #[test]
    fn cancellation_classification() {
        assert!(JobError::Cancelled { job: 1 }.is_cancellation());
        assert!(JobError::DeadlineExceeded { job: 1 }.is_cancellation());
        assert!(!JobError::MachineDown { machine: 0 }.is_cancellation());
        assert!(!JobError::QueueFull {
            queued: 1,
            depth: 1
        }
        .is_cancellation());
        // Cancellations are never transient: the retry gate must treat
        // them as fatal even though the cluster is healthy.
        assert!(!JobError::Cancelled { job: 1 }.is_transient());
        assert!(!JobError::DeadlineExceeded { job: 1 }.is_transient());
    }
}
