//! The job scheduler: two priority lanes drained weighted-fair, FIFO
//! within a lane, per-session in-flight caps, and a bounded submission
//! queue.
//!
//! This is a pure data structure — no threads, no clock. The server wraps
//! it in a mutex/condvar pair; keeping the policy synchronous makes every
//! interleaving of `submit`/`cancel`/`next_job`/`complete` directly testable
//! (see the property tests at the bottom).
//!
//! **Weighted-fair draining.** Each lane has a weight `w` and a dispatch
//! count `served`. `next_job` picks the eligible lane with the smallest
//! `served / w` (compared as `served_a × w_b ≤ served_b × w_a` to stay in
//! integers), so with weights `[3, 1]` a saturated queue dispatches three
//! interactive jobs per batch job — batch never starves, interactive
//! never waits behind a wall of batch work.
//!
//! **Session caps.** A session may have at most `session_cap` jobs
//! *in flight* (dispatched, not yet completed): a queued job whose
//! session is at its cap is skipped — not dropped — by `next_job` until a
//! slot frees up, so one greedy session cannot monopolise the cluster
//! while others wait. The global queue bound still applies at submit
//! ([`JobError::QueueFull`]).

use pgxd_runtime::health::JobError;
use std::collections::HashMap;
use std::collections::VecDeque;

/// Priority lane of a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Lane {
    /// Latency-sensitive client queries; drained with the higher default
    /// weight.
    Interactive = 0,
    /// Throughput work (full-graph analytics, batch scoring).
    Batch = 1,
}

impl Lane {
    fn index(self) -> usize {
        self as usize
    }
}

/// Scheduler-visible description of one submitted job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobMeta {
    /// Server-assigned job id (also the [`CancelToken`] id).
    ///
    /// [`CancelToken`]: pgxd_runtime::cancel::CancelToken
    pub id: u64,
    /// Owning session.
    pub session: u64,
    pub lane: Lane,
    /// Property columns the job expects to create (admission input).
    pub props: usize,
}

/// The pure scheduling core. See the module docs.
#[derive(Debug)]
pub struct Scheduler {
    depth: usize,
    session_cap: usize,
    weights: [u64; 2],
    served: [u64; 2],
    lanes: [VecDeque<JobMeta>; 2],
    /// Jobs currently dispatched (not yet completed), per session.
    running: HashMap<u64, usize>,
}

impl Scheduler {
    /// `depth` bounds the total queued jobs across lanes; `weights` are
    /// the `[interactive, batch]` drain weights; `session_cap` bounds one
    /// session's in-flight (dispatched, uncompleted) jobs. All must be
    /// nonzero (validated by `Config::validate`, asserted here).
    pub fn new(depth: usize, weights: [u32; 2], session_cap: usize) -> Scheduler {
        assert!(depth >= 1 && session_cap >= 1 && weights.iter().all(|&w| w >= 1));
        Scheduler {
            depth,
            session_cap,
            weights: [u64::from(weights[0]), u64::from(weights[1])],
            served: [0; 2],
            lanes: [VecDeque::new(), VecDeque::new()],
            running: HashMap::new(),
        }
    }

    /// Total queued jobs across both lanes.
    pub fn queued(&self) -> usize {
        self.lanes.iter().map(|l| l.len()).sum()
    }

    /// Jobs dispatched and not yet completed.
    pub fn running(&self) -> usize {
        self.running.values().sum()
    }

    /// Enqueues a job, rejecting with [`JobError::QueueFull`] when the
    /// global queue is at depth.
    pub fn submit(&mut self, meta: JobMeta) -> Result<(), JobError> {
        let queued = self.queued();
        if queued >= self.depth {
            return Err(JobError::QueueFull {
                queued,
                depth: self.depth,
            });
        }
        self.lanes[meta.lane.index()].push_back(meta);
        Ok(())
    }

    /// Removes a queued job; returns its meta if it was still queued
    /// (`None` means it already dispatched or never existed).
    pub fn cancel(&mut self, id: u64) -> Option<JobMeta> {
        for lane in &mut self.lanes {
            if let Some(pos) = lane.iter().position(|j| j.id == id) {
                return lane.remove(pos);
            }
        }
        None
    }

    /// First job in `lane` whose session is below its in-flight cap.
    fn eligible_pos(&self, lane: usize) -> Option<usize> {
        self.lanes[lane]
            .iter()
            .position(|j| self.running.get(&j.session).copied().unwrap_or(0) < self.session_cap)
    }

    /// Dispatches the next job: the eligible lane with the smallest
    /// weighted served count, FIFO within the lane (skipping capped
    /// sessions). Returns `None` when nothing is eligible. The caller
    /// must pair every `next_job` with a [`Scheduler::complete`].
    pub fn next_job(&mut self) -> Option<JobMeta> {
        let candidates: Vec<(usize, usize)> = (0..2)
            .filter_map(|l| self.eligible_pos(l).map(|pos| (l, pos)))
            .collect();
        let (lane, pos) = match candidates.as_slice() {
            [] => return None,
            [only] => *only,
            [a, b] => {
                // served_a / w_a <= served_b / w_b, cross-multiplied.
                // Ties go to the interactive lane (index 0).
                if self.served[a.0] * self.weights[b.0] <= self.served[b.0] * self.weights[a.0] {
                    *a
                } else {
                    *b
                }
            }
            _ => unreachable!("two lanes"),
        };
        let meta = self.lanes[lane].remove(pos).expect("position just found");
        self.served[lane] += 1;
        *self.running.entry(meta.session).or_insert(0) += 1;
        Some(meta)
    }

    /// Marks a dispatched job finished, freeing its session slot.
    pub fn complete(&mut self, session: u64) {
        match self.running.get_mut(&session) {
            Some(n) if *n > 1 => *n -= 1,
            Some(_) => {
                self.running.remove(&session);
            }
            None => debug_assert!(false, "complete without a matching next"),
        }
    }

    /// Drains every queued job of one session (session close). Returns
    /// the removed metas.
    pub fn drain_session(&mut self, session: u64) -> Vec<JobMeta> {
        let mut out = Vec::new();
        for lane in &mut self.lanes {
            let mut keep = VecDeque::with_capacity(lane.len());
            while let Some(j) = lane.pop_front() {
                if j.session == session {
                    out.push(j);
                } else {
                    keep.push_back(j);
                }
            }
            *lane = keep;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn meta(id: u64, session: u64, lane: Lane) -> JobMeta {
        JobMeta {
            id,
            session,
            lane,
            props: 0,
        }
    }

    #[test]
    fn bounded_queue_rejects_with_occupancy() {
        let mut s = Scheduler::new(2, [3, 1], 16);
        s.submit(meta(1, 0, Lane::Interactive)).unwrap();
        s.submit(meta(2, 0, Lane::Batch)).unwrap();
        match s.submit(meta(3, 1, Lane::Interactive)) {
            Err(JobError::QueueFull { queued, depth }) => {
                assert_eq!((queued, depth), (2, 2));
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
    }

    #[test]
    fn session_cap_bounds_in_flight_jobs() {
        let mut s = Scheduler::new(64, [3, 1], 2);
        for i in 1..=3 {
            s.submit(meta(i, 7, Lane::Interactive)).unwrap();
        }
        assert_eq!(s.next_job().unwrap().id, 1);
        assert_eq!(s.next_job().unwrap().id, 2);
        // Session 7 is at its in-flight cap: job 3 waits...
        assert_eq!(s.next_job(), None);
        // ...until a completion frees a slot.
        s.complete(7);
        assert_eq!(s.next_job().unwrap().id, 3);
    }

    #[test]
    fn weighted_fair_drain_matches_weights() {
        let mut s = Scheduler::new(64, [3, 1], 64);
        for i in 0..12 {
            s.submit(meta(i, 0, Lane::Interactive)).unwrap();
            s.submit(meta(100 + i, 1, Lane::Batch)).unwrap();
        }
        let first8: Vec<Lane> = (0..8).map(|_| s.next_job().unwrap().lane).collect();
        let interactive = first8.iter().filter(|&&l| l == Lane::Interactive).count();
        // 3:1 weights → 6 interactive / 2 batch over any 8 dispatches of a
        // saturated queue.
        assert_eq!(interactive, 6, "dispatch order {first8:?}");
    }

    #[test]
    fn fifo_within_lane() {
        let mut s = Scheduler::new(64, [1, 1], 64);
        for i in 0..5 {
            s.submit(meta(i, i, Lane::Batch)).unwrap();
        }
        let order: Vec<u64> = (0..5).map(|_| s.next_job().unwrap().id).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn capped_session_is_skipped_not_dropped() {
        let mut s = Scheduler::new(64, [1, 1], 1);
        s.submit(meta(1, 7, Lane::Interactive)).unwrap();
        assert_eq!(s.next_job().unwrap().id, 1); // session 7 now at cap
        s.submit(meta(2, 7, Lane::Interactive)).unwrap();
        s.submit(meta(3, 8, Lane::Interactive)).unwrap();
        // Job 2 is skipped while its session is saturated; job 3 runs.
        assert_eq!(s.next_job().unwrap().id, 3);
        assert_eq!(s.next_job(), None);
        s.complete(7);
        assert_eq!(s.next_job().unwrap().id, 2);
    }

    #[test]
    fn cancel_removes_queued_only() {
        let mut s = Scheduler::new(64, [1, 1], 64);
        s.submit(meta(1, 0, Lane::Batch)).unwrap();
        s.submit(meta(2, 0, Lane::Batch)).unwrap();
        assert_eq!(s.cancel(1).unwrap().id, 1);
        assert_eq!(s.cancel(1), None, "cancel is one-shot");
        assert_eq!(s.next_job().unwrap().id, 2);
        assert_eq!(s.cancel(2), None, "dispatched jobs are not queued");
    }

    #[test]
    fn drain_session_empties_both_lanes() {
        let mut s = Scheduler::new(64, [1, 1], 64);
        s.submit(meta(1, 7, Lane::Interactive)).unwrap();
        s.submit(meta(2, 8, Lane::Interactive)).unwrap();
        s.submit(meta(3, 7, Lane::Batch)).unwrap();
        let drained: Vec<u64> = s.drain_session(7).iter().map(|j| j.id).collect();
        assert_eq!(drained, vec![1, 3]);
        assert_eq!(s.queued(), 1);
        assert_eq!(s.next_job().unwrap().id, 2);
    }

    /// One scheduler op for the interleaving property test.
    #[derive(Clone, Debug)]
    enum Op {
        Submit { session: u64, lane: Lane },
        Cancel { nth: u64 },
        Next,
        Complete,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..4, 0u8..2).prop_map(|(session, b)| Op::Submit {
                session,
                lane: if b == 0 {
                    Lane::Interactive
                } else {
                    Lane::Batch
                },
            }),
            (0u64..8).prop_map(|nth| Op::Cancel { nth }),
            Just(Op::Next),
            Just(Op::Next), // bias toward draining
            Just(Op::Complete),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any interleaving of submit/cancel/next/complete conserves
        /// jobs — each accepted job is dispatched at most once and ends
        /// in exactly one of {queued, dispatched, cancelled} — and
        /// respects FIFO within each lane.
        #[test]
        fn interleavings_conserve_jobs(
            ops in prop::collection::vec(arb_op(), 0..120),
            depth in 1usize..12,
            cap in 1usize..4,
            wi in 1u32..5,
            wb in 1u32..5,
        ) {
            let mut s = Scheduler::new(depth, [wi, wb], cap);
            let mut next_id = 0u64;
            let mut accepted: Vec<u64> = Vec::new();
            let mut dispatched: Vec<JobMeta> = Vec::new();
            let mut cancelled: Vec<u64> = Vec::new();
            let mut running: Vec<u64> = Vec::new(); // sessions, multiset
            for op in ops {
                match op {
                    Op::Submit { session, lane } => {
                        next_id += 1;
                        let m = meta(next_id, session, lane);
                        if s.submit(m).is_ok() {
                            accepted.push(m.id);
                        }
                        prop_assert!(s.queued() <= depth);
                    }
                    Op::Cancel { nth } => {
                        // Aim at some id that may or may not be queued.
                        if next_id > 0 {
                            let id = nth % next_id + 1;
                            if let Some(m) = s.cancel(id) {
                                prop_assert_eq!(m.id, id);
                                prop_assert!(accepted.contains(&id));
                                prop_assert!(!cancelled.contains(&id), "double cancel");
                                prop_assert!(
                                    !dispatched.iter().any(|d| d.id == id),
                                    "cancelled a dispatched job"
                                );
                                cancelled.push(id);
                            }
                        }
                    }
                    Op::Next => {
                        if let Some(m) = s.next_job() {
                            prop_assert!(accepted.contains(&m.id));
                            prop_assert!(
                                !dispatched.iter().any(|d| d.id == m.id),
                                "job {} dispatched twice", m.id
                            );
                            prop_assert!(!cancelled.contains(&m.id));
                            // Per-session in-flight cap, counting this one.
                            let inflight =
                                running.iter().filter(|&&x| x == m.session).count() + 1;
                            prop_assert!(inflight <= cap);
                            dispatched.push(m);
                            running.push(m.session);
                        }
                    }
                    Op::Complete => {
                        if let Some(session) = running.pop() {
                            s.complete(session);
                        }
                    }
                }
            }
            // Conservation: every accepted job is in exactly one bucket.
            let queued_now = s.queued();
            prop_assert_eq!(
                dispatched.len() + cancelled.len() + queued_now,
                accepted.len()
            );
            // Same-session dispatches within one lane stay FIFO.
            for lane in [Lane::Interactive, Lane::Batch] {
                for session in 0u64..4 {
                    let ids: Vec<u64> = dispatched
                        .iter()
                        .filter(|m| m.lane == lane && m.session == session)
                        .map(|m| m.id)
                        .collect();
                    let mut sorted = ids.clone();
                    sorted.sort_unstable();
                    prop_assert_eq!(ids, sorted, "lane {:?} session {}", lane, session);
                }
            }
        }
    }
}
