//! Distributed termination detection for multi-process clusters.
//!
//! The in-process cluster detects phase completion with one shared atomic:
//! every buffered entry is added to `pending` before its buffer is sealed
//! or its work unit retired (workers publish in batches, see
//! `WorkerComm::publish_pending`) and subtracted at consumption time, and
//! §3.2's rule — "a job completes when the task
//! list is empty and there are no unfinished remote requests" — reduces to
//! `outstanding == 0 && pending == 0`. Real processes cannot share that
//! counter, so the TCP backend runs a four-counter wave protocol instead
//! (Mattern's method):
//!
//! * every machine keeps **monotonic** counters `inc` (entries produced)
//!   and `dec` (entries consumed), mirroring exactly the sites that
//!   update `pending`, batches included;
//! * each poller tick sends a [`TermStat`] report to the coordinator
//!   (machine 0) carrying `{token, stat_seq, inc, dec, done}` where
//!   `token` is the current phase epoch and `done` means the local task
//!   list for that phase is empty;
//! * the coordinator records a *candidate* when every machine reports the
//!   current token with `done` and `Σinc == Σdec`, and **releases** the
//!   token only when a second, per-machine strictly fresher wave shows the
//!   same balanced sums. Monotonicity makes this sound: identical sums
//!   across two fresh waves prove no entry was produced or consumed in
//!   between, so the balance is real and not two messages crossing mid-
//!   flight;
//! * `TermRelease` broadcasts the verdict. Both wave kinds ride outside
//!   the reliability protocol; a lost release self-heals because the
//!   coordinator re-releases whenever it sees a report for an already-
//!   released token.
//!
//! Correctness leans on an ordering the in-process counter already
//! obeys: `dec` is bumped *after* the consumed entry's effects (atomic
//! property application, response continuations) are complete, so a
//! balanced sum can never hide work spawned by a half-consumed message.

use crate::message::TermStat;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// What the coordinator wants done after ingesting one report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TermAction {
    /// Nothing to send.
    None,
    /// Quiescence confirmed: broadcast `TermRelease(token)` to every
    /// machine (including the coordinator itself).
    Release(u64),
    /// The reporter is stuck on an already-released token (its release was
    /// lost): re-send `TermRelease(token)` to just that machine.
    ReRelease(u64),
}

/// A released-token candidate awaiting its confirming wave.
#[derive(Debug)]
struct Candidate {
    token: u64,
    sum_inc: u64,
    /// `stat_seq` of each machine's report at candidate time; the
    /// confirming wave must be strictly fresher on every machine.
    seqs: Vec<u64>,
}

/// Coordinator-side state (lives on machine 0; inert elsewhere).
#[derive(Debug, Default)]
struct TermCoord {
    latest: Vec<Option<TermStat>>,
    candidate: Option<Candidate>,
    last_released: u64,
}

/// Per-machine distributed-termination state. Created for every machine;
/// inert (`!enabled`) on in-memory clusters, where the shared `pending`
/// counter remains the completion oracle.
#[derive(Debug)]
pub struct TermState {
    enabled: bool,
    machines: usize,
    /// Monotonic count of payload entries produced by this machine.
    inc: AtomicU64,
    /// Monotonic count of payload entries consumed by this machine.
    dec: AtomicU64,
    /// Phase token (cluster phase epoch) currently being executed.
    current_token: AtomicU64,
    /// Highest token whose local task list was observed empty.
    done_token: AtomicU64,
    /// Highest token released by the coordinator.
    released_token: AtomicU64,
    /// Monotonic report counter (wave freshness).
    stat_seq: AtomicU64,
    coord: Mutex<TermCoord>,
}

impl TermState {
    /// Creates termination state for a cluster of `machines`. When
    /// `enabled` is false every operation is a cheap no-op.
    pub fn new(machines: usize, enabled: bool) -> Self {
        TermState {
            enabled,
            machines,
            inc: AtomicU64::new(0),
            dec: AtomicU64::new(0),
            current_token: AtomicU64::new(0),
            done_token: AtomicU64::new(0),
            released_token: AtomicU64::new(0),
            stat_seq: AtomicU64::new(0),
            coord: Mutex::new(TermCoord {
                latest: vec![None; machines],
                candidate: None,
                last_released: 0,
            }),
        }
    }

    /// Whether the wave protocol is active (TCP backend).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records `n` produced entries (mirror of `pending.fetch_add`).
    #[inline]
    pub fn add_inc(&self, n: u64) {
        if self.enabled {
            self.inc.fetch_add(n, Ordering::SeqCst);
        }
    }

    /// Records `n` consumed entries (mirror of `pending.fetch_sub`). Must
    /// be called only after the entries' effects are fully applied.
    #[inline]
    pub fn add_dec(&self, n: u64) {
        if self.enabled {
            self.dec.fetch_add(n, Ordering::SeqCst);
        }
    }

    /// Enters phase `token` (tokens are the cluster phase epochs, strictly
    /// increasing).
    pub fn begin_phase(&self, token: u64) {
        self.current_token.store(token, Ordering::SeqCst);
    }

    /// The phase token currently executing.
    #[inline]
    pub fn current(&self) -> u64 {
        self.current_token.load(Ordering::SeqCst)
    }

    /// Marks the local task list for the current phase empty. Idempotent;
    /// called lazily from the completion check so machines with zero local
    /// work report `done` too.
    #[inline]
    pub fn mark_local_done(&self) {
        self.done_token.fetch_max(self.current(), Ordering::SeqCst);
    }

    /// Whether `token` has been released by the coordinator.
    #[inline]
    pub fn released(&self, token: u64) -> bool {
        self.released_token.load(Ordering::SeqCst) >= token
    }

    /// Applies a received `TermRelease`.
    pub fn release(&self, token: u64) {
        self.released_token.fetch_max(token, Ordering::SeqCst);
    }

    /// Samples this machine's next report. Returns `None` when no phase is
    /// armed yet or the current phase is already released (nothing to
    /// report).
    pub fn sample(&self) -> Option<TermStat> {
        if !self.enabled {
            return None;
        }
        let token = self.current();
        if token == 0 || self.released(token) {
            return None;
        }
        Some(TermStat {
            token,
            stat_seq: self.stat_seq.fetch_add(1, Ordering::SeqCst) + 1,
            inc: self.inc.load(Ordering::SeqCst),
            dec: self.dec.load(Ordering::SeqCst),
            done: self.done_token.load(Ordering::SeqCst) >= token,
        })
    }

    /// Coordinator ingestion of one machine's report (machine 0 only).
    pub fn coord_on_stat(&self, src: usize, stat: TermStat) -> TermAction {
        let mut c = self.coord.lock();
        if stat.token <= c.last_released {
            // The reporter missed a release broadcast; repeat the highest.
            return TermAction::ReRelease(c.last_released);
        }
        c.latest[src] = Some(stat);

        let t = stat.token;
        let all_ready = c
            .latest
            .iter()
            .all(|s| s.map(|s| s.token == t && s.done).unwrap_or(false));
        if !all_ready {
            return TermAction::None;
        }
        let sum_inc: u64 = c.latest.iter().map(|s| s.unwrap().inc).sum();
        let sum_dec: u64 = c.latest.iter().map(|s| s.unwrap().dec).sum();
        if sum_inc != sum_dec {
            return TermAction::None;
        }
        let seqs: Vec<u64> = c.latest.iter().map(|s| s.unwrap().stat_seq).collect();
        match &c.candidate {
            Some(cand) if cand.token == t && cand.sum_inc == sum_inc => {
                // Because `inc` is monotonic, an unchanged sum across two
                // waves proves zero production in between — but only if
                // every machine actually reported again. The candidate's
                // snapshot is deliberately *not* refreshed by partial
                // waves, so the freshness bar stays where it was set.
                if seqs.iter().zip(&cand.seqs).all(|(now, then)| now > then) {
                    c.last_released = t;
                    c.candidate = None;
                    TermAction::Release(t)
                } else {
                    TermAction::None
                }
            }
            _ => {
                c.candidate = Some(Candidate {
                    token: t,
                    sum_inc,
                    seqs,
                });
                TermAction::None
            }
        }
    }

    /// Number of machines the coordinator expects reports from.
    pub fn machines(&self) -> usize {
        self.machines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(token: u64, stat_seq: u64, inc: u64, dec: u64, done: bool) -> TermStat {
        TermStat {
            token,
            stat_seq,
            inc,
            dec,
            done,
        }
    }

    #[test]
    fn release_needs_two_fresh_balanced_waves() {
        let t = TermState::new(2, true);
        // Wave 1: balanced and done on both machines → candidate only.
        assert_eq!(
            t.coord_on_stat(0, stat(1, 1, 10, 4, true)),
            TermAction::None
        );
        assert_eq!(t.coord_on_stat(1, stat(1, 1, 2, 8, true)), TermAction::None);
        // A repeat from machine 0 alone is not a full fresh wave.
        assert_eq!(
            t.coord_on_stat(0, stat(1, 2, 10, 4, true)),
            TermAction::None
        );
        // Machine 1's fresh report completes the confirming wave.
        assert_eq!(
            t.coord_on_stat(1, stat(1, 2, 2, 8, true)),
            TermAction::Release(1)
        );
    }

    #[test]
    fn activity_between_waves_resets_candidate() {
        let t = TermState::new(2, true);
        t.coord_on_stat(0, stat(1, 1, 10, 10, true));
        t.coord_on_stat(1, stat(1, 1, 0, 0, true)); // candidate at Σinc=10
                                                    // Both machines report again, still balanced, but the sums moved:
                                                    // two messages were produced and consumed in between.
        t.coord_on_stat(0, stat(1, 2, 12, 10, true));
        assert_eq!(
            t.coord_on_stat(1, stat(1, 2, 0, 2, true)),
            TermAction::None,
            "changed sums must restart the candidate"
        );
        // The next fresh wave at the new sums confirms.
        t.coord_on_stat(0, stat(1, 3, 12, 10, true));
        assert_eq!(
            t.coord_on_stat(1, stat(1, 3, 0, 2, true)),
            TermAction::Release(1)
        );
    }

    #[test]
    fn unbalanced_or_not_done_never_releases() {
        let t = TermState::new(2, true);
        for seq in 1..10 {
            assert_eq!(
                t.coord_on_stat(0, stat(1, seq, 5, 5, true)),
                TermAction::None
            );
            assert_eq!(
                t.coord_on_stat(1, stat(1, seq, 5, 4, true)),
                TermAction::None,
                "Σinc != Σdec"
            );
        }
        let t = TermState::new(2, true);
        for seq in 1..10 {
            t.coord_on_stat(0, stat(1, seq, 5, 5, true));
            assert_eq!(
                t.coord_on_stat(1, stat(1, seq, 5, 5, false)),
                TermAction::None,
                "a machine with live tasks blocks release"
            );
        }
    }

    #[test]
    fn stale_token_gets_rerelease() {
        let t = TermState::new(1, true);
        assert_eq!(t.coord_on_stat(0, stat(1, 1, 0, 0, true)), TermAction::None);
        assert_eq!(
            t.coord_on_stat(0, stat(1, 2, 0, 0, true)),
            TermAction::Release(1)
        );
        // The release to this machine was "lost": it reports token 1 again.
        assert_eq!(
            t.coord_on_stat(0, stat(1, 3, 0, 0, true)),
            TermAction::ReRelease(1)
        );
    }

    #[test]
    fn local_state_machine() {
        let t = TermState::new(2, true);
        assert!(t.sample().is_none(), "no phase armed");
        t.begin_phase(1);
        t.add_inc(3);
        t.add_dec(1);
        let s = t.sample().unwrap();
        assert_eq!((s.token, s.inc, s.dec, s.done), (1, 3, 1, false));
        t.mark_local_done();
        assert!(t.sample().unwrap().done);
        assert!(!t.released(1));
        t.release(1);
        assert!(t.released(1));
        assert!(t.sample().is_none(), "released phase stops reporting");
        // Next phase: done/released flags do not leak forward.
        t.begin_phase(2);
        let s = t.sample().unwrap();
        assert!(!s.done);
        assert!(!t.released(2));
    }

    #[test]
    fn disabled_state_is_inert() {
        let t = TermState::new(2, false);
        t.begin_phase(1);
        t.add_inc(5);
        assert!(t.sample().is_none());
        assert!(!t.enabled());
        assert_eq!(t.machines(), 2);
    }
}
